//! Tiny dependency-free argument parsing.

use std::collections::{HashMap, HashSet};

/// A parsed argument list: positionals, `--flag value` options from a
/// fixed allow-list, and value-less boolean flags from a second one.
pub struct Parsed<'a> {
    positionals: Vec<&'a str>,
    options: HashMap<&'a str, &'a str>,
    flags: HashSet<&'a str>,
}

impl<'a> Parsed<'a> {
    /// Parses `argv`, accepting only the options in `allowed` (each takes
    /// exactly one value).
    pub fn parse(argv: &'a [String], allowed: &[&str]) -> Result<Self, String> {
        Self::parse_with_flags(argv, allowed, &[])
    }

    /// Like [`Parsed::parse`], additionally accepting the value-less
    /// boolean flags in `allowed_flags`.
    pub fn parse_with_flags(
        argv: &'a [String],
        allowed: &[&str],
        allowed_flags: &[&str],
    ) -> Result<Self, String> {
        let mut positionals = Vec::new();
        let mut options = HashMap::new();
        let mut flags = HashSet::new();
        let mut i = 0;
        while i < argv.len() {
            let a = argv[i].as_str();
            if a.starts_with('-') && a.len() > 1 {
                if allowed_flags.contains(&a) {
                    flags.insert(a);
                    i += 1;
                    continue;
                }
                if !allowed.contains(&a) {
                    return Err(unknown(a, allowed, allowed_flags));
                }
                let v = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("option `{a}` needs a value"))?;
                options.insert(a, v.as_str());
                i += 2;
            } else {
                positionals.push(a);
                i += 1;
            }
        }
        Ok(Parsed {
            positionals,
            options,
            flags,
        })
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).copied()
    }

    /// The raw value of an option.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).copied()
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// Parses an option value.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("option `{name}`: cannot parse `{v}`")),
        }
    }
}

/// The error for an option outside both allow-lists. It names every
/// option the command accepts, so the message doubles as the parser's
/// side of the help-text check (`tests/detector_names.rs`).
fn unknown(option: &str, allowed: &[&str], allowed_flags: &[&str]) -> String {
    let accepted = [allowed, allowed_flags].concat();
    if accepted.is_empty() {
        format!("unknown option `{option}` (this command takes none)")
    } else {
        format!(
            "unknown option `{option}` (accepted: {})",
            accepted.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let a = argv(&["ferret", "--scale", "0.5", "-o", "out.dgrt"]);
        let p = Parsed::parse(&a, &["--scale", "-o"]).unwrap();
        assert_eq!(p.positional(0), Some("ferret"));
        assert_eq!(p.opt("-o"), Some("out.dgrt"));
        assert_eq!(p.opt_parse::<f64>("--scale").unwrap(), Some(0.5));
        assert_eq!(p.opt_parse::<u64>("--seed").unwrap(), None);
    }

    #[test]
    fn unknown_option_rejected() {
        let a = argv(&["--bogus", "1"]);
        assert_eq!(
            Parsed::parse_with_flags(&a, &["--scale"], &["--json"]).err(),
            Some("unknown option `--bogus` (accepted: --scale, --json)".into())
        );
        assert_eq!(
            Parsed::parse(&a, &[]).err(),
            Some("unknown option `--bogus` (this command takes none)".into())
        );
    }

    #[test]
    fn missing_value_rejected() {
        let a = argv(&["--scale"]);
        assert!(Parsed::parse(&a, &["--scale"]).is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let a = argv(&["--scale", "abc"]);
        let p = Parsed::parse(&a, &["--scale"]).unwrap();
        assert!(p.opt_parse::<f64>("--scale").is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = argv(&["trace.dgrt", "--resync", "--shards", "2"]);
        let p = Parsed::parse_with_flags(&a, &["--shards"], &["--resync"]).unwrap();
        assert!(p.flag("--resync"));
        assert!(!p.flag("--verbose"));
        assert_eq!(p.positional(0), Some("trace.dgrt"));
        assert_eq!(p.opt_parse::<usize>("--shards").unwrap(), Some(2));
    }

    #[test]
    fn flag_not_in_allow_list_rejected() {
        let a = argv(&["--resync"]);
        assert!(Parsed::parse_with_flags(&a, &[], &[]).is_err());
    }
}
