//! Strict parsers for the execution-environment knobs.
//!
//! Unknown or malformed values **fail loudly**: a typo like `DPS_THREADS=fuor`
//! must abort the run, not silently fall back to a default and measure
//! something else than asked. The pure `parse_*` functions are unit-testable;
//! the readers panic with the parse error.

/// Parses a `DPS_THREADS` value: unset means "use available parallelism"
/// (`None`), otherwise an integer ≥ 1.
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "DPS_THREADS={s:?} is not a valid worker count (expected an integer >= 1)"
            )),
        },
    }
}

/// Worker-thread count for fanning independent scenario cells out, from
/// `DPS_THREADS` (default: the machine's available parallelism).
///
/// # Panics
///
/// Panics on a malformed value — see the [module docs](self).
pub fn threads() -> usize {
    match parse_threads(std::env::var("DPS_THREADS").ok().as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_parsing_is_strict() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("8")), Ok(Some(8)));
        assert!(parse_threads(Some("0"))
            .unwrap_err()
            .contains("DPS_THREADS"));
        assert!(parse_threads(Some("many")).is_err());
    }

    #[test]
    fn thread_parsing_trims_and_rejects_signs_and_fractions() {
        assert_eq!(parse_threads(Some(" 2 ")), Ok(Some(2)));
        assert!(parse_threads(Some("-1")).is_err());
        assert!(parse_threads(Some("2.5")).is_err());
    }
}
