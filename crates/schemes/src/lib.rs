//! All routing/selection schemes evaluated in the paper (§IV-B, §V-B):
//!
//! | Scheme | Paper role |
//! |---|---|
//! | [`OurScheme`] | The proposed resource-aware photo selection algorithm |
//! | [`OurScheme::no_metadata`] | Ablation: metadata caching/management disabled |
//! | [`BestPossible`] | Upper bound: epidemic with unlimited storage/bandwidth |
//! | [`SprayAndWait`] | Binary Spray&Wait, 4 copies — content-oblivious baseline |
//! | [`ModifiedSpray`] | Spray&Wait prioritizing *individual* photo coverage |
//! | [`PhotoNet`] | Diversity-driven picture delivery (location/time/color) |
//! | [`Epidemic`] | Resource-constrained epidemic replication (extra baseline) |
//! | [`DirectDelivery`] | Source-only delivery floor (extra baseline) |
//! | [`CentralizedOracle`] | SmartPhoto-style server with global knowledge (extra baseline) |
//! | [`ProphetRouting`] | PROPHET with the GRTR forwarding rule (extra baseline) |
//!
//! Every scheme implements [`photodtn_sim::Scheme`] and can be handed to
//! [`photodtn_sim::Simulation::run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classic;
mod oracle;
mod ours;
mod photonet;
mod prophet_routing;
mod rules;
mod spray;
mod upload_base;
mod value;

pub use classic::{DirectDelivery, Epidemic};
pub use oracle::CentralizedOracle;
pub use ours::OurScheme;
pub use photodtn_sim::schemes_api::FloodScheme as BestPossible;
pub use photonet::PhotoNet;
pub use prophet_routing::ProphetRouting;
pub use spray::{ModifiedSpray, SprayAndWait, SPRAY_COPIES};
