//! A tiny `--flag value` argument parser.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Every option that takes no value, across all commands.
pub const SWITCHES: &[&str] = &[
    "anechoic", "near", "trace", "no-skip", "no-cache", "shutdown", "profile", "memprof",
];

/// Parsed command line: a subcommand plus `--key value` / `--switch`
/// options. Every lookup marks its key as read, so [`Args::unused`] can
/// name the options the command never consulted — typically a typo.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
    read: RefCell<BTreeSet<String>>,
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option that needs a value didn't get one.
    MissingValue(String),
    /// A required option is absent.
    Required(String),
    /// A value failed to parse.
    BadValue(String, String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::Required(k) => write!(f, "required option --{k} missing"),
            ArgError::BadValue(k, v) => write!(f, "bad value {v:?} for --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name); the names in
    /// [`SWITCHES`] take no value.
    pub fn parse(raw: &[String]) -> Result<Args, ArgError> {
        let mut it = raw.iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?.clone();
        let mut options = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::BadValue("<positional>".into(), tok.clone()))?;
            if SWITCHES.contains(&key) {
                switches.push(key.to_string());
            } else {
                let val = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                options.insert(key.to_string(), val.clone());
            }
        }
        Ok(Args {
            command,
            options,
            switches,
            read: RefCell::default(),
        })
    }

    fn mark_read(&self, key: &str) {
        self.read.borrow_mut().insert(key.to_string());
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.mark_read(key);
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Required(key.into()))
    }

    /// A numeric option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue(key.into(), v.into())),
        }
    }

    /// An integer option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue(key.into(), v.into())),
        }
    }

    /// Whether a value-less switch was present.
    pub fn switch(&self, key: &str) -> bool {
        self.mark_read(key);
        self.switches.iter().any(|s| s == key)
    }

    /// The options and switches given on the command line that no lookup
    /// has read, sorted by name.
    pub fn unused(&self) -> Vec<String> {
        let read = self.read.borrow();
        let mut unused: Vec<String> = self
            .options
            .keys()
            .chain(&self.switches)
            .filter(|k| !read.contains(*k))
            .cloned()
            .collect();
        unused.sort();
        unused
    }

    /// Prints `warning: unused option --KEY` on stderr for each of
    /// [`Args::unused`].
    pub fn warn_unused(&self) {
        for key in self.unused() {
            eprintln!("warning: unused option --{key}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_switches() {
        let a = Args::parse(&raw("personalize --seed 42 --anechoic --grid 5")).unwrap();
        assert_eq!(a.command, "personalize");
        assert_eq!(a.get_u64("seed", 0).unwrap(), 42);
        assert_eq!(a.get_f64("grid", 1.0).unwrap(), 5.0);
        assert!(a.switch("anechoic"));
        assert!(!a.switch("room"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&raw("info")).unwrap();
        assert_eq!(a.get_f64("theta", 30.0).unwrap(), 30.0);
        assert!(a.get("table").is_none());
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(Args::parse(&[]).unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn missing_value_rejected() {
        let err = Args::parse(&raw("x --seed")).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("seed".into()));
    }

    #[test]
    fn bad_number_rejected() {
        let a = Args::parse(&raw("x --seed banana")).unwrap();
        assert!(matches!(
            a.get_u64("seed", 0),
            Err(ArgError::BadValue(_, _))
        ));
    }

    #[test]
    fn required_option() {
        let a = Args::parse(&raw("x --table t.hrtf")).unwrap();
        assert_eq!(a.require("table").unwrap(), "t.hrtf");
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn unread_options_are_reported() {
        let a = Args::parse(&raw(
            "personalize --seed 1 --profile-ot p.json --profile --near",
        ))
        .unwrap();
        assert_eq!(a.get_u64("seed", 0).unwrap(), 1);
        assert!(a.switch("profile"));
        // Reading an absent key marks nothing that was given.
        assert!(a.get("profile-out").is_none());
        assert_eq!(
            a.unused(),
            vec!["near".to_string(), "profile-ot".to_string()]
        );
        assert!(a.switch("near"));
        assert_eq!(a.unused(), vec!["profile-ot".to_string()]);
    }
}
