//! Minimal flag parsing (`--key value` pairs and bare `--flag` booleans
//! after a subcommand) — no external dependency needed for a handful of
//! subcommands.

use std::collections::BTreeMap;

/// Parsed command line: subcommand plus `--key value` flags.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Sorted by key, so [`Args::assert_known`] reports the same unknown
    /// flag on every run.
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses `std::env::args`-style input (program name already stripped).
    pub fn parse<I: IntoIterator<Item = String>>(input: I) -> Result<Args, String> {
        let mut it = input.into_iter().peekable();
        let command = it.next().unwrap_or_default();
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{tok}'"))?;
            // `--flag value` consumes the value; a `--flag` followed by
            // another flag (or end of input) is a boolean.
            let value = match it.peek() {
                // `unwrap_or_default` instead of `unwrap`: the peek
                // guarantees a value, but argument parsing must not carry
                // a panic path.
                Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
                _ => "true".to_string(),
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Args { command, flags })
    }

    /// A boolean flag: present (bare or `--flag true`) means true.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.get(key).is_some_and(|v| v != "false")
    }

    /// Was the flag given at all? Distinguishes an explicit `--shards 0`
    /// (a validation error) from the flag simply being absent.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// A u64 flag with a default.
    pub fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// A usize flag with a default.
    pub fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.u64(key, default as u64).map(|v| v as usize)
    }

    /// A string flag with a default.
    pub fn str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Flags the caller never consumed (likely typos). Of several unknown
    /// flags, the alphabetically first is reported.
    pub fn assert_known(&self, known: &[&str]) -> Result<(), String> {
        for k in self.flags.keys() {
            if !known.contains(&k.as_str()) {
                return Err(format!("unknown flag --{k} (expected one of {known:?})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = parse("run --n 1024 --model sqsm").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.usize("n", 0).unwrap(), 1024);
        assert_eq!(a.str("model", "qsm"), "sqsm");
        assert_eq!(a.u64("g", 8).unwrap(), 8);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("run n 1024").is_err());
        // A value-less flag parses as a boolean, so numeric access fails.
        assert!(parse("run --n").unwrap().u64("n", 1).is_err());
        assert!(parse("run --n x").unwrap().u64("n", 1).is_err());
    }

    #[test]
    fn bare_flags_are_booleans() {
        let a = parse("lint --all --n 128").unwrap();
        assert!(a.flag("all"));
        assert!(!a.flag("list"));
        assert_eq!(a.usize("n", 0).unwrap(), 128);
        let a = parse("lint --list").unwrap();
        assert!(a.flag("list"));
    }

    #[test]
    fn unknown_flags_are_reported() {
        let a = parse("run --bogus 1").unwrap();
        assert!(a.assert_known(&["n", "g"]).is_err());
        let a = parse("run --n 4").unwrap();
        assert!(a.assert_known(&["n", "g"]).is_ok());
        let a = parse("run --zeta 1 --n 4 --bogus 2").unwrap();
        assert_eq!(
            a.assert_known(&["n", "g"]).unwrap_err(),
            r#"unknown flag --bogus (expected one of ["n", "g"])"#
        );
    }

    #[test]
    fn empty_input_gives_empty_command() {
        let a = parse("").unwrap();
        assert_eq!(a.command, "");
    }
}
