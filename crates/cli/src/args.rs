//! Minimal dependency-free argument parsing for the CLI.

use std::fmt;

/// Parsed command line: a subcommand plus `--key value` / `--flag` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// `--key value` pairs in command-line order; a repeated key's last
    /// value wins.
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

/// Error raised for malformed command lines or bad option values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// Grammar: `[command] (--key value | --flag)*`. An option is a flag
    /// when it is followed by another `--option` or nothing.
    ///
    /// # Errors
    ///
    /// Returns an error on a stray positional argument after the command.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ParseArgsError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                args.command = iter.next();
            }
        }
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ParseArgsError(format!(
                    "unexpected positional argument `{token}`"
                )));
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    args.options.push((key.to_string(), value));
                }
                _ => args.flags.push(key.to_string()),
            }
        }
        Ok(args)
    }

    /// String option by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Refuses every `--key` outside `known`, so a misspelt option is
    /// an error instead of a silently kept default.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown key (options before
    /// flags) and the command.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ParseArgsError> {
        let mut keys = self.options.iter().map(|(k, _)| k).chain(&self.flags);
        match keys.find(|k| !known.contains(&k.as_str())) {
            Some(key) => Err(ParseArgsError(format!(
                "unknown option --{key} for {}",
                self.command.as_deref().unwrap_or_default()
            ))),
            None => Ok(()),
        }
    }

    /// Whether a bare `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError(format!("invalid value `{v}` for --{key}"))),
        }
    }

    /// Required option.
    ///
    /// # Errors
    ///
    /// Returns an error when the option is missing.
    pub fn require(&self, key: &str) -> Result<&str, ParseArgsError> {
        self.get(key)
            .ok_or_else(|| ParseArgsError(format!("missing required option --{key}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["simulate", "--reps", "10", "--verbose", "--seed", "7"]);
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get("reps"), Some("10"));
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn options_parse_with_defaults() {
        let a = parse(&["x", "--reps", "12"]);
        assert_eq!(a.get_or("reps", 100usize).expect("parses"), 12);
        assert_eq!(a.get_or("other", 5usize).expect("default"), 5);
        assert!(a.get_or::<usize>("reps", 0).is_ok());
        let bad = parse(&["x", "--reps", "ten"]);
        assert!(bad.get_or::<usize>("reps", 0).is_err());
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let a = parse(&["gen", "--fast"]);
        assert!(a.flag("fast"));
    }

    #[test]
    fn rejects_stray_positional() {
        let err = Args::parse(vec!["gen".into(), "oops".into()]).unwrap_err();
        assert!(err.to_string().contains("oops"));
    }

    #[test]
    fn unknown_keys_are_refused_by_name() {
        let a = parse(&["serve", "--duration", "0.01", "--duratoin", "5", "--bogus"]);
        let err = a.reject_unknown(&["duration"]).unwrap_err().to_string();
        assert_eq!(err, "unknown option --duratoin for serve");
        let err = a.reject_unknown(&["duration", "duratoin"]).unwrap_err().to_string();
        assert_eq!(err, "unknown option --bogus for serve");
        assert!(a.reject_unknown(&["duration", "duratoin", "bogus"]).is_ok());
    }

    #[test]
    fn a_repeated_option_keeps_its_last_value() {
        assert_eq!(parse(&["x", "--seed", "1", "--seed", "2"]).get("seed"), Some("2"));
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&["gen"]);
        assert!(a.require("out").is_err());
        let b = parse(&["gen", "--out", "x.json"]);
        assert_eq!(b.require("out").expect("present"), "x.json");
    }
}
