//! A compact textual specification for parameter spaces.
//!
//! Active Harmony users describe tunables declaratively; this module
//! provides the equivalent for CLI tools and config files. One
//! parameter per `;`-separated clause:
//!
//! ```text
//! ntheta int 16 128 step 8; negrid int 4 48 step 4; nodes levels 1,2,4,8,16
//! tile int 8 512 step 8; alpha real 0.0 1.0
//! ```
//!
//! Grammar per clause (whitespace-separated):
//!
//! * `<name> int <lo> <hi> [step <s>]` — integer range (default step 1),
//! * `<name> real <lo> <hi>` — continuous range,
//! * `<name> levels <v1>,<v2>,…` — explicit ascending levels.

use crate::{ParamDef, ParamError, ParamSpace};

/// Parses a parameter-space specification.
///
/// ```
/// use harmony_params::spec::parse_space;
///
/// let space = parse_space("tile int 8 64 step 8; mode levels 0,1,2").unwrap();
/// assert_eq!(space.dims(), 2);
/// assert_eq!(space.lattice_size(), Some(8 * 3));
/// ```
///
/// # Errors
/// Returns [`ParamError`] with a clause-level description on any
/// malformed input.
pub fn parse_space(spec: &str) -> Result<ParamSpace, ParamError> {
    let mut defs = Vec::new();
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        defs.push(parse_clause(clause)?);
    }
    ParamSpace::new(defs)
}

fn parse_clause(clause: &str) -> Result<ParamDef, ParamError> {
    let tokens: Vec<&str> = clause.split_whitespace().collect();
    let invalid = |reason: String| ParamError::InvalidRange {
        name: tokens.first().unwrap_or(&"?").to_string(),
        reason,
    };
    if tokens.len() < 2 {
        return Err(invalid(format!("clause `{clause}` too short")));
    }
    let name = tokens[0];
    match tokens[1] {
        "int" => {
            if tokens.len() != 4 && !(tokens.len() == 6 && tokens[4] == "step") {
                return Err(invalid(format!(
                    "expected `{name} int <lo> <hi> [step <s>]`, got `{clause}`"
                )));
            }
            let lo = parse_i64(tokens[2], &invalid)?;
            let hi = parse_i64(tokens[3], &invalid)?;
            let step = if tokens.len() == 6 {
                parse_i64(tokens[5], &invalid)?
            } else {
                1
            };
            ParamDef::integer(name, lo, hi, step)
        }
        "real" => {
            if tokens.len() != 4 {
                return Err(invalid(format!(
                    "expected `{name} real <lo> <hi>`, got `{clause}`"
                )));
            }
            let lo = parse_f64(tokens[2], &invalid)?;
            let hi = parse_f64(tokens[3], &invalid)?;
            ParamDef::continuous(name, lo, hi)
        }
        "levels" => {
            if tokens.len() < 3 {
                return Err(invalid(format!(
                    "expected `{name} levels <v1>,<v2>,…`, got `{clause}`"
                )));
            }
            // allow spaces after commas: rejoin and resplit
            let joined = tokens[2..].join("");
            let levels = joined
                .split(',')
                .filter(|v| !v.is_empty())
                .map(|v| parse_f64(v, &invalid))
                .collect::<Result<Vec<_>, _>>()?;
            ParamDef::levels(name, levels)
        }
        other => Err(invalid(format!(
            "unknown parameter kind `{other}` (expected int/real/levels)"
        ))),
    }
}

fn parse_i64(tok: &str, invalid: &impl Fn(String) -> ParamError) -> Result<i64, ParamError> {
    tok.parse()
        .map_err(|_| invalid(format!("`{tok}` is not an integer")))
}

fn parse_f64(tok: &str, invalid: &impl Fn(String) -> ParamError) -> Result<f64, ParamError> {
    tok.parse()
        .map_err(|_| invalid(format!("`{tok}` is not a number")))
}

/// Renders a space back into the specification syntax (not guaranteed to
/// round-trip step-aligned upper bounds, but always re-parseable to an
/// equivalent space).
pub fn format_space(space: &ParamSpace) -> String {
    space
        .params()
        .iter()
        .map(|p| match p.kind() {
            crate::ParamKind::Continuous { lo, hi } => {
                format!("{} real {lo} {hi}", p.name())
            }
            crate::ParamKind::Integer { lo, hi, step } => {
                if *step == 1 {
                    format!("{} int {lo} {hi}", p.name())
                } else {
                    format!("{} int {lo} {hi} step {step}", p.name())
                }
            }
            crate::ParamKind::Levels(v) => {
                let levels: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
                format!("{} levels {}", p.name(), levels.join(","))
            }
        })
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_gs2_space() {
        let s =
            parse_space("ntheta int 16 128 step 8; negrid int 4 48 step 4; nodes levels 1,2,4,8")
                .unwrap();
        assert_eq!(s.dims(), 3);
        assert_eq!(s.names(), vec!["ntheta", "negrid", "nodes"]);
        assert_eq!(s.param(0).cardinality(), Some(15));
        assert_eq!(s.param(2).cardinality(), Some(4));
    }

    #[test]
    fn parses_mixed_kinds_and_default_step() {
        let s = parse_space("a int -5 5; b real 0.5 1.5").unwrap();
        assert_eq!(s.param(0).cardinality(), Some(11));
        assert!(s.param(1).is_continuous());
    }

    #[test]
    fn whitespace_and_trailing_semicolons_tolerated() {
        let s = parse_space("  a int 0 3 ;;  b levels 1, 2, 4 ; ").unwrap();
        assert_eq!(s.dims(), 2);
        assert_eq!(s.param(1).cardinality(), Some(3));
    }

    #[test]
    fn rejects_malformed_clauses() {
        assert!(parse_space("a int 0").is_err());
        assert!(parse_space("a float 0 1").is_err());
        assert!(parse_space("a int zero 5").is_err());
        assert!(parse_space("a real 1.0 0.0").is_err()); // inverted range
        assert!(parse_space("a levels 3,2,1").is_err()); // descending
        assert!(parse_space("").is_err()); // empty space
        assert!(parse_space("a int 0 10 stride 2").is_err());
    }

    #[test]
    fn rejects_an_integer_range_wider_than_i64() {
        let err = parse_space("a int -9223372036854775808 9223372036854775807").unwrap_err();
        assert!(
            matches!(&err, ParamError::InvalidRange { name, .. } if name == "a"),
            "{err:?}"
        );
        assert!(parse_space("a int -9223372036854775808 -1").is_ok());
    }

    #[test]
    fn error_messages_name_the_parameter() {
        let err = parse_space("knob int x 5").unwrap_err();
        assert!(err.to_string().contains("knob"), "{err}");
    }

    #[test]
    fn format_round_trips() {
        let spec = "ntheta int 16 128 step 8; x real 0 1; nodes levels 1,2,8";
        let space = parse_space(spec).unwrap();
        let reparsed = parse_space(&format_space(&space)).unwrap();
        assert_eq!(space, reparsed);
    }
}
