//! Minimal command-line argument handling for the `bce` tool: positional
//! arguments plus `--flag` and `--key value` options, with typed accessors
//! and up-front unknown-option detection. Hand-rolled to keep the
//! workspace dependency-free.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub positional: Vec<String>,
    options: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
    /// The options the command declared, space separated (see
    /// [`Args::restrict_to`]); `None` until restricted.
    declared: Option<&'static str>,
}

/// An argument-level error with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw arguments. `value_opts` lists options that take a value;
    /// everything else starting with `--` is a boolean flag.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        value_opts: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if value_opts.contains(&name) {
                    let v =
                        it.next().ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                    args.options.entry(name.to_string()).or_default().push(v);
                } else {
                    args.flags.push(name.to_string());
                }
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// Error out on any option or flag outside `declared`, before the
    /// command does any work (catches typos). Afterwards, reading an
    /// undeclared name is a bug in the command's declaration.
    pub fn restrict_to(&mut self, declared: &'static str) -> Result<(), ArgError> {
        let known = |name: &str| declared.split_whitespace().any(|d| d == name);
        if let Some(f) = self.flags.iter().find(|f| !known(f)) {
            return Err(ArgError(format!("unknown flag --{f}")));
        }
        if let Some(k) = self.options.keys().find(|k| !known(k)) {
            return Err(ArgError(format!("unknown option --{k}")));
        }
        self.declared = Some(declared);
        Ok(())
    }

    /// Error out on a positional argument past the command name and `max`
    /// more, before the command does any work, so a stray word is never
    /// silently dropped.
    pub fn limit_positionals(&self, max: usize) -> Result<(), ArgError> {
        match self.positional.get(1 + max) {
            Some(extra) => Err(ArgError(format!("unexpected argument {extra:?}"))),
            None => Ok(()),
        }
    }

    fn read(&self, name: &str) {
        debug_assert!(
            self.declared.is_none_or(|d| d.split_whitespace().any(|x| x == name)),
            "--{name} is read but not declared"
        );
    }

    pub fn flag(&self, name: &str) -> bool {
        self.read(name);
        self.flags.iter().any(|f| f == name)
    }

    pub fn opt(&self, name: &str) -> Option<&str> {
        self.read(name);
        self.options.get(name).and_then(|v| v.last()).map(|s| s.as_str())
    }

    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => {
                v.parse().map(Some).map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}")))
            }
        }
    }

    pub fn opt_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        Ok(self.opt_parse(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from), &["days", "sched", "out"]).unwrap()
    }

    #[test]
    fn positional_and_options() {
        let a = parse("run file.xml --days 5 --timeline");
        assert_eq!(a.positional, vec!["run", "file.xml"]);
        assert_eq!(a.opt("days"), Some("5"));
        assert!(a.flag("timeline"));
        assert!(!a.flag("log"));
        assert_eq!(a.opt_or("days", 1.0).unwrap(), 5.0);
    }

    #[test]
    fn missing_value_is_error() {
        let e = Args::parse(["--days".to_string()], &["days"]).unwrap_err();
        assert!(e.to_string().contains("requires a value"));
    }

    #[test]
    fn bad_parse_is_error() {
        let a = parse("--days abc");
        assert!(a.opt_parse::<f64>("days").is_err());
    }

    #[test]
    fn unknown_rejected() {
        let mut a = parse("run --days 5 --bogus");
        assert!(a.restrict_to("days").unwrap_err().to_string().contains("--bogus"));
        let mut b = parse("run --days 5 --timeline");
        assert!(b.restrict_to("days").unwrap_err().to_string().contains("--timeline"));
        let mut c = parse("run --days 5 --timeline");
        assert!(c.restrict_to("days timeline").is_ok());
        assert!(c.flag("timeline"));
    }

    #[test]
    fn extra_positionals_rejected() {
        let a = parse("run file.xml --days 5");
        assert!(a.limit_positionals(1).is_ok());
        assert!(a.limit_positionals(0).unwrap_err().to_string().contains("\"file.xml\""));
        assert!(parse("list").limit_positionals(0).is_ok());
    }

    #[test]
    fn repeated_options_keep_the_last() {
        let a =
            Args::parse(["--sched", "a", "--sched", "b"].iter().map(|s| s.to_string()), &["sched"])
                .unwrap();
        assert_eq!(a.opt("sched"), Some("b"));
    }
}
