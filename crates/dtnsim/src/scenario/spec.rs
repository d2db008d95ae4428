//! The strict TOML subset scenario files are written in, and the config
//! helpers the scenario schema lowers its `[sim]` knobs and `[grid]` axes
//! through.
//!
//! The workspace builds offline, so this module carries its own parser
//! for the TOML subset a scenario needs — sections, `key = value` pairs,
//! strings, integers, floats, booleans and flat arrays — with strict
//! rejection of unknown sections/keys (same ethos as the CLI flag
//! parser: a typo must be an error, not a silently ignored knob).

use std::collections::BTreeMap;

use crate::{FaultConfig, SimConfig};

const GB: f64 = 1024.0 * 1024.0 * 1024.0;

/// The config keys a `[sim]` section or `[grid]` axis may set.
pub(crate) const CONFIG_KEYS: &[&str] = &[
    "photos_per_hour",
    "storage_gb",
    "deadline_hours",
    "failure_fraction",
    "fault_intensity",
    "contact_cap_secs",
];

/// A parse/validation error, with the offending line when known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 when the error is not tied to a line).
    pub line: usize,
    /// The typed failure class (duplicates carry their first-definition
    /// line so tooling can point at both sides).
    pub kind: SpecErrorKind,
    /// What went wrong, human-readable.
    pub message: String,
}

/// The class of a [`SpecError`] — stable across message rewording, so
/// tests and tooling can match on structure instead of substrings.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecErrorKind {
    /// Malformed TOML-subset syntax.
    Syntax,
    /// A key assigned twice in the same section — including a key
    /// reintroduced when its section is illegally reopened.
    DuplicateKey {
        /// The offending key.
        key: String,
        /// 1-based line of the first assignment.
        first_line: usize,
    },
    /// A `[section]` header appearing twice, adjacent or not.
    DuplicateSection {
        /// The offending section name.
        name: String,
        /// 1-based line of the first header.
        first_line: usize,
    },
    /// Syntactically valid input that fails schema validation (unknown
    /// names, type mismatches, out-of-range values, …).
    Validation,
}

impl SpecError {
    pub(crate) fn at(line: usize, message: impl Into<String>) -> Self {
        SpecError {
            line,
            kind: SpecErrorKind::Syntax,
            message: message.into(),
        }
    }

    pub(crate) fn global(message: impl Into<String>) -> Self {
        SpecError {
            line: 0,
            kind: SpecErrorKind::Validation,
            message: message.into(),
        }
    }

    fn duplicate_key(line: usize, key: &str, first_line: usize) -> Self {
        SpecError {
            line,
            kind: SpecErrorKind::DuplicateKey {
                key: key.to_string(),
                first_line,
            },
            message: format!("duplicate key {key:?} (first assigned on line {first_line})"),
        }
    }

    fn duplicate_section(line: usize, name: &str, first_line: usize) -> Self {
        SpecError {
            line,
            kind: SpecErrorKind::DuplicateSection {
                name: name.to_string(),
                first_line,
            },
            message: format!("duplicate section [{name}] (first opened on line {first_line})"),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for SpecError {}

/// A TOML-subset value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A flat array of scalars.
    Array(Vec<Value>),
}

impl Value {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// A parsed TOML-subset document: `section -> key -> value` maps.
pub type Document = BTreeMap<String, BTreeMap<String, Value>>;

/// Parses the TOML subset into a [`Document`], plus the line of each
/// section's header (so a schema can point at a section it rejects).
///
/// Section names are dotted paths of `[A-Za-z0-9_]` segments (`[pois]`,
/// `[pois.schedule]`); the dotted name is the map key verbatim. Duplicate
/// keys and duplicate (or reopened) sections are typed errors carrying
/// both line numbers — last-wins semantics would let a fat-fingered
/// override silently shadow the value above it.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the offending line on any syntax
/// error, duplicate key, duplicate section, or key outside a section.
pub fn parse_toml(text: &str) -> Result<(Document, BTreeMap<String, usize>), SpecError> {
    let mut doc = Document::new();
    // First-definition lines, kept aside so the value maps stay plain.
    let mut section_lines: BTreeMap<String, usize> = BTreeMap::new();
    let mut key_lines: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut section: Option<String> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(SpecError::at(line_no, "unterminated section header"));
            };
            let name = name.trim();
            let well_formed = !name.is_empty()
                && name.split('.').all(|seg| {
                    !seg.is_empty() && seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                });
            if !well_formed {
                return Err(SpecError::at(line_no, format!("bad section name {name:?}")));
            }
            if let Some(&first) = section_lines.get(name) {
                return Err(SpecError::duplicate_section(line_no, name, first));
            }
            section_lines.insert(name.to_string(), line_no);
            doc.insert(name.to_string(), BTreeMap::new());
            section = Some(name.to_string());
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(SpecError::at(
                line_no,
                format!("expected `key = value`, got {line:?}"),
            ));
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(SpecError::at(line_no, format!("bad key {key:?}")));
        }
        let Some(section) = &section else {
            return Err(SpecError::at(
                line_no,
                format!("key {key:?} outside any [section]"),
            ));
        };
        let (value, rest) = parse_value(line[eq + 1..].trim_start(), line_no)?;
        let rest = rest.trim_start();
        if !rest.is_empty() && !rest.starts_with('#') {
            return Err(SpecError::at(
                line_no,
                format!("trailing garbage after value: {rest:?}"),
            ));
        }
        if let Some(&first) = key_lines.get(&(section.clone(), key.to_string())) {
            return Err(SpecError::duplicate_key(line_no, key, first));
        }
        key_lines.insert((section.clone(), key.to_string()), line_no);
        let table = doc.get_mut(section).expect("section inserted above");
        table.insert(key.to_string(), value);
    }
    Ok((doc, section_lines))
}

/// Parses one value at the start of `input`; returns it and the rest.
fn parse_value(input: &str, line_no: usize) -> Result<(Value, &str), SpecError> {
    let input = input.trim_start();
    let Some(first) = input.chars().next() else {
        return Err(SpecError::at(line_no, "missing value"));
    };
    match first {
        '"' => {
            let mut out = String::new();
            let mut chars = input[1..].char_indices();
            while let Some((j, c)) = chars.next() {
                match c {
                    '"' => return Ok((Value::Str(out), &input[1 + j + 1..])),
                    '\\' => match chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        other => {
                            return Err(SpecError::at(
                                line_no,
                                format!("unsupported escape {other:?}"),
                            ))
                        }
                    },
                    c => out.push(c),
                }
            }
            Err(SpecError::at(line_no, "unterminated string"))
        }
        '[' => {
            let mut items = Vec::new();
            let mut rest = input[1..].trim_start();
            loop {
                if let Some(after) = rest.strip_prefix(']') {
                    return Ok((Value::Array(items), after));
                }
                // Reject nesting *before* recursing: `[[[[…` repeated ~10⁵
                // times must be a typed error, not a stack overflow.
                if rest.starts_with('[') {
                    return Err(SpecError::at(line_no, "nested arrays are not supported"));
                }
                let (item, after) = parse_value(rest, line_no)?;
                items.push(item);
                rest = after.trim_start();
                if let Some(after) = rest.strip_prefix(',') {
                    rest = after.trim_start();
                } else if !rest.starts_with(']') {
                    return Err(SpecError::at(
                        line_no,
                        format!("expected `,` or `]` in array, got {rest:?}"),
                    ));
                }
            }
        }
        _ => {
            let end = input
                .find(|c: char| c == ',' || c == ']' || c == '#' || c.is_whitespace())
                .unwrap_or(input.len());
            let token = &input[..end];
            let rest = &input[end..];
            match token {
                "true" => return Ok((Value::Bool(true), rest)),
                "false" => return Ok((Value::Bool(false), rest)),
                "" => return Err(SpecError::at(line_no, "missing value")),
                _ => {}
            }
            if !token.contains(['.', 'e', 'E']) {
                if let Ok(i) = token.parse::<i64>() {
                    return Ok((Value::Int(i), rest));
                }
            }
            match token.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok((Value::Float(f), rest)),
                _ => Err(SpecError::at(line_no, format!("bad value {token:?}"))),
            }
        }
    }
}

/// Parses a `[grid]` table: every key is an axis (one of
/// [`CONFIG_KEYS`]) mapping to a non-empty array of in-range numbers.
pub(crate) fn parse_grid(
    grid_tbl: BTreeMap<String, Value>,
) -> Result<BTreeMap<String, Vec<f64>>, SpecError> {
    let mut grid = BTreeMap::new();
    for (key, value) in grid_tbl {
        if !CONFIG_KEYS.contains(&key.as_str()) {
            return Err(SpecError::global(format!(
                "[grid] unknown axis {key:?} (expected one of {CONFIG_KEYS:?})"
            )));
        }
        let Value::Array(items) = value else {
            return Err(SpecError::global(format!(
                "[grid] {key} must be an array of numbers"
            )));
        };
        let values: Vec<f64> = items
            .iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| {
                    SpecError::global(format!(
                        "[grid] {key} must contain only numbers, got {}",
                        v.type_name()
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        if values.is_empty() {
            return Err(SpecError::global(format!("[grid] {key} must be non-empty")));
        }
        for &value in &values {
            apply_config(
                SimConfig::mit_default(),
                &key,
                &format!("[grid] {key}"),
                value,
            )?;
        }
        grid.insert(key, values);
    }
    Ok(grid)
}

/// Expands a grid (axis → values) over a base config into the sorted
/// variant list: the cross product of every axis, each variant named
/// `key=value,key=value` (or `"base"` when the grid is empty). The
/// journal binds on variant names, so they must stay stable.
pub(crate) fn expand_grid(
    base: &SimConfig,
    grid: &BTreeMap<String, Vec<f64>>,
) -> Vec<(String, SimConfig)> {
    // Cross product of the grid axes, keys in sorted order so the
    // variant list is deterministic.
    let axes: Vec<(&String, &Vec<f64>)> = grid.iter().collect();
    let mut variants: Vec<(String, SimConfig)> = Vec::new();
    let mut index = vec![0usize; axes.len()];
    loop {
        let mut name_parts = Vec::new();
        let mut config = base.clone();
        for (axis, &i) in axes.iter().zip(&index) {
            let value = axis.1[i];
            name_parts.push(format!("{}={}", axis.0, value));
            config = apply_config(config, axis.0, axis.0, value)
                .expect("grid axes and values validated at parse time");
        }
        let name = if name_parts.is_empty() {
            "base".to_string()
        } else {
            name_parts.join(",")
        };
        variants.push((name, config));
        // Odometer increment; done when it wraps (or there are no
        // axes, where the single base variant is the whole grid).
        let mut carry = true;
        for (slot, axis) in index.iter_mut().zip(&axes) {
            *slot += 1;
            if *slot < axis.1.len() {
                carry = false;
                break;
            }
            *slot = 0;
        }
        if carry {
            break;
        }
    }
    variants.sort_by(|a, b| a.0.cmp(&b.0));
    variants
}

/// Sets config `key` to `value` after a range check; `name` is the knob
/// as its author spelled it (`[sim] storage_gb`, `--storage-gb`), for
/// the error message.
pub(crate) fn apply_config(
    config: SimConfig,
    key: &str,
    name: &str,
    value: f64,
) -> Result<SimConfig, SpecError> {
    let check_range = |lo: f64, hi: f64| -> Result<(), SpecError> {
        if (lo..=hi).contains(&value) {
            return Ok(());
        }
        let range = if hi < f64::MAX {
            format!("{lo}..={hi}")
        } else {
            format!("{lo}..")
        };
        Err(SpecError::global(format!(
            "{name} = {value} out of range {range}"
        )))
    };
    Ok(match key {
        "photos_per_hour" => {
            check_range(0.0, f64::MAX)?;
            config.with_photos_per_hour(value)
        }
        "storage_gb" => {
            check_range(0.0, f64::MAX)?;
            config.with_storage_bytes((value * GB) as u64)
        }
        "deadline_hours" => {
            check_range(0.0, f64::MAX)?;
            config.with_deadline_hours(value)
        }
        "failure_fraction" => {
            check_range(0.0, 1.0)?;
            config.with_failure_fraction(value)
        }
        "fault_intensity" => {
            check_range(0.0, 1.0)?;
            if value > 0.0 {
                config.with_faults(FaultConfig::chaos(value))
            } else {
                config.with_faults(FaultConfig::default())
            }
        }
        "contact_cap_secs" => {
            check_range(0.0, f64::MAX)?;
            config.with_contact_duration_cap(value)
        }
        other => {
            return Err(SpecError::global(format!("unknown config key {other:?}")));
        }
    })
}

pub(crate) fn reject_unknown(
    table: &BTreeMap<String, Value>,
    section: &str,
) -> Result<(), SpecError> {
    if let Some(key) = table.keys().next() {
        return Err(SpecError::global(format!(
            "[{section}] unknown key {key:?}"
        )));
    }
    Ok(())
}

pub(crate) fn take_string(
    table: &mut BTreeMap<String, Value>,
    key: &str,
) -> Result<Option<String>, SpecError> {
    match table.remove(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(v) => Err(SpecError::global(format!(
            "{key} must be a string, got {}",
            v.type_name()
        ))),
    }
}

pub(crate) fn take_string_array(
    table: &mut BTreeMap<String, Value>,
    key: &str,
) -> Result<Option<Vec<String>>, SpecError> {
    match table.remove(key) {
        None => Ok(None),
        Some(Value::Array(items)) => items
            .into_iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s),
                other => Err(SpecError::global(format!(
                    "{key} must contain strings, got {}",
                    other.type_name()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(v) => Err(SpecError::global(format!(
            "{key} must be an array, got {}",
            v.type_name()
        ))),
    }
}

pub(crate) fn take_int_array(
    table: &mut BTreeMap<String, Value>,
    key: &str,
) -> Result<Option<Vec<u64>>, SpecError> {
    match table.remove(key) {
        None => Ok(None),
        Some(Value::Array(items)) => items
            .into_iter()
            .map(|v| match v {
                Value::Int(i) if i >= 0 => Ok(i as u64),
                other => Err(SpecError::global(format!(
                    "{key} must contain non-negative integers, got {other:?}"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(v) => Err(SpecError::global(format!(
            "{key} must be an array, got {}",
            v.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_subset_syntax() {
        let (doc, lines) = parse_toml(
            "# comment\n[s]\na = 1\nb = 2.5 # trailing\nc = \"x \\\" y\"\nd = [1, 2,]\ne = true\n",
        )
        .unwrap();
        assert_eq!(lines["s"], 2);
        let s = &doc["s"];
        assert_eq!(s["a"], Value::Int(1));
        assert_eq!(s["b"], Value::Float(2.5));
        assert_eq!(s["c"], Value::Str("x \" y".into()));
        assert_eq!(s["d"], Value::Array(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(s["e"], Value::Bool(true));
    }

    #[test]
    fn toml_syntax_errors_carry_line_numbers() {
        for (text, line) in [
            ("[s\n", 1),
            ("[s]\nkey value\n", 2),
            ("[s]\na = \"unterminated\n", 2),
            ("[s]\na = [1, [2]]\n", 2),
            ("key = 1\n", 1),
            ("[s]\na = 1\na = 2\n", 3),
            ("[s]\na = 1 extra\n", 2),
        ] {
            let err = parse_toml(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
        }
    }

    #[test]
    fn duplicate_key_same_section_is_typed_with_both_lines() {
        let err = parse_toml("[s]\na = 1\nb = 2\na = 3\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(
            err.kind,
            SpecErrorKind::DuplicateKey {
                key: "a".into(),
                first_line: 2,
            }
        );
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(
            err.to_string().contains("first assigned on line 2"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_section_is_typed_even_when_reopened_later() {
        // Adjacent duplicate.
        let err = parse_toml("[s]\n[s]\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.kind,
            SpecErrorKind::DuplicateSection {
                name: "s".into(),
                first_line: 1,
            }
        );
        // Cross-section reopen: [a] … [b] … [a] again. Last-wins would
        // silently merge or shadow; we reject at the second header.
        let err = parse_toml("[a]\nx = 1\n[b]\ny = 2\n[a]\nz = 3\n").unwrap_err();
        assert_eq!(err.line, 5);
        assert_eq!(
            err.kind,
            SpecErrorKind::DuplicateSection {
                name: "a".into(),
                first_line: 1,
            }
        );
    }

    #[test]
    fn same_key_in_different_sections_is_fine() {
        let (doc, _) = parse_toml("[a]\nx = 1\n[b]\nx = 2\n").unwrap();
        assert_eq!(doc["a"]["x"], Value::Int(1));
        assert_eq!(doc["b"]["x"], Value::Int(2));
    }

    #[test]
    fn dotted_section_names_parse() {
        let (doc, _) =
            parse_toml("[pois]\ncount = 3\n[pois.schedule]\nat_hours = [1, 2]\n").unwrap();
        assert_eq!(doc["pois"]["count"], Value::Int(3));
        assert_eq!(
            doc["pois.schedule"]["at_hours"],
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
        // Empty segments are still malformed.
        for bad in ["[.]", "[a.]", "[.a]", "[a..b]"] {
            let err = parse_toml(&format!("{bad}\n")).unwrap_err();
            assert_eq!(err.kind, SpecErrorKind::Syntax, "{bad}: {err}");
        }
    }

    #[test]
    fn deeply_nested_array_is_an_error_not_a_stack_overflow() {
        let text = format!("[s]\na = {}1", "[".repeat(100_000));
        let err = parse_toml(&text).unwrap_err();
        assert!(err.to_string().contains("nested arrays"), "{err}");
    }

    #[test]
    fn expand_grid_matches_plan_naming() {
        let mut grid = BTreeMap::new();
        grid.insert("fault_intensity".to_string(), vec![0.0, 0.5]);
        let variants = expand_grid(&SimConfig::mit_default(), &grid);
        assert_eq!(variants.len(), 2);
        assert_eq!(variants[0].0, "fault_intensity=0");
        assert_eq!(variants[1].0, "fault_intensity=0.5");
        assert!(expand_grid(&SimConfig::mit_default(), &BTreeMap::new())
            .iter()
            .any(|(name, _)| name == "base"));
    }
}
