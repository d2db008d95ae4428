use std::collections::HashMap;

use photodtn_contacts::NodeId;
use photodtn_coverage::{Coverage, CoverageParams, Photo, PhotoId, PoiList};
use photodtn_sim::SimCtx;

use crate::rules::make_room;

/// Memoized *individual* photo coverage `C_ph({f})`, quantized for total
/// ordering.
///
/// ModifiedSpray ranks photos by their standalone coverage ("transmits the
/// photo with the most photo coverage first", §V-B) and our scheme uses
/// the same quantity as a cheap storage-eviction heuristic at photo
/// generation time. The value of a photo in isolation never changes, so
/// it is computed once per photo id.
#[derive(Clone, Debug, Default)]
pub(crate) struct PhotoValueCache {
    values: HashMap<PhotoId, (i64, i64)>,
}

impl PhotoValueCache {
    /// The quantized `(point, aspect)` value of `photo` in isolation.
    pub(crate) fn value(
        &mut self,
        photo: &Photo,
        pois: &PoiList,
        params: CoverageParams,
    ) -> (i64, i64) {
        if let Some(v) = self.values.get(&photo.id) {
            return *v;
        }
        let c = Coverage::of(pois, [&photo.meta], params);
        const SCALE: f64 = 1e9;
        let q = (
            (c.point * SCALE).round() as i64,
            (c.aspect * SCALE).round() as i64,
        );
        self.values.insert(photo.id, q);
        q
    }

    /// Least-value eviction: while `photo` does not fit on `node`, evicts
    /// the stored photo with the least `(value, id)` if it ranks below
    /// `photo`'s, telling `on_evict` about each. Returns whether `photo`
    /// then fits.
    pub(crate) fn evict_below(
        &mut self,
        ctx: &mut SimCtx,
        node: NodeId,
        photo: &Photo,
        mut on_evict: impl FnMut(PhotoId),
    ) -> bool {
        let rank = (
            self.value(photo, ctx.pois(), ctx.coverage_params()),
            photo.id,
        );
        make_room(ctx, node, photo.size, |ctx| {
            let (pois, params) = (ctx.pois(), ctx.coverage_params());
            let (value, victim) = ctx
                .collection(node)
                .iter()
                .map(|p| (self.value(p, pois, params), p.id))
                .min()?;
            if (value, victim) >= rank {
                return None;
            }
            on_evict(victim);
            Some(victim)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photodtn_coverage::{PhotoMeta, Poi};
    use photodtn_geo::{Angle, Point};

    fn pois() -> PoiList {
        PoiList::new(vec![Poi::new(0, Point::new(0.0, 0.0))])
    }

    fn shot(id: u64, covers: bool) -> Photo {
        let dir = if covers { Angle::PI } else { Angle::ZERO };
        Photo::new(
            id,
            PhotoMeta::new(Point::new(50.0, 0.0), 100.0, Angle::from_degrees(40.0), dir),
            0.0,
        )
    }

    #[test]
    fn values_ordered_and_cached() {
        let pois = pois();
        let mut cache = PhotoValueCache::default();
        let good = cache.value(&shot(1, true), &pois, CoverageParams::default());
        let bad = cache.value(&shot(2, false), &pois, CoverageParams::default());
        assert!(good > bad);
        assert_eq!(bad, (0, 0));
        assert_eq!(cache.values.len(), 2);
        // cached lookup returns the same value
        assert_eq!(
            cache.value(&shot(1, true), &pois, CoverageParams::default()),
            good
        );
        assert_eq!(cache.values.len(), 2);
    }
}
