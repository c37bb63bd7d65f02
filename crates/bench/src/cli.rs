//! The one command-line parser of the bench binaries: a flag table in, values out.
//!
//! Strict on purpose — these binaries run for minutes and overwrite `BENCH_*.json`, so a
//! mistyped flag or value must stop the run instead of silently falling back to a default.

use std::collections::HashMap;

/// What follows a flag on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nothing: the flag's presence is its value.
    Switch,
    /// A non-negative integer.
    Number,
    /// Any string that does not itself start with `--`.
    Text,
}

/// The values of one parsed command line, by flag name.
#[derive(Debug, PartialEq, Eq)]
pub struct Args(HashMap<&'static str, String>);

impl Args {
    /// Whether the switch was given.
    #[must_use]
    pub fn switch(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    /// The flag's value as given, if it was given.
    #[must_use]
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    /// The value of a [`Kind::Number`] flag, if it was given.
    #[must_use]
    pub fn number(&self, flag: &str) -> Option<usize> {
        self.text(flag)
            .map(|v| v.parse().expect("numbers are validated by parse"))
    }
}

/// Parses `args` (without the program name) against the flag table.  `Ok(None)` means
/// `--help` was asked for; an unknown flag, a missing value or an unparsable number is an
/// error naming the offender.
pub fn parse(
    flags: &[(&'static str, Kind)],
    args: impl IntoIterator<Item = String>,
) -> Result<Option<Args>, String> {
    let mut values = HashMap::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let &(name, kind) = flags
            .iter()
            .find(|(name, _)| *name == arg)
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        let value = match kind {
            Kind::Switch => String::new(),
            Kind::Number | Kind::Text => args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{name} needs a value"))?,
        };
        if kind == Kind::Number && value.parse::<usize>().is_err() {
            return Err(format!("{name} needs a number, got '{value}'"));
        }
        values.insert(name, value);
    }
    Ok(Some(Args(values)))
}

/// Parses the process's own command line: `--help` prints `usage` and exits 0, a command
/// line [`parse`] rejects prints the reason and `usage` and exits 2.
#[must_use]
pub fn parse_or_exit(usage: &str, flags: &[(&'static str, Kind)]) -> Args {
    match parse(flags, std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(err) => {
            eprintln!("error: {err}\n\n{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[(&str, Kind)] = &[
        ("--tiny", Kind::Switch),
        ("--scale", Kind::Number),
        ("--json", Kind::Text),
    ];

    fn parse_line(line: &str) -> Result<Option<Args>, String> {
        parse(FLAGS, line.split_whitespace().map(String::from))
    }

    #[test]
    fn given_flags_come_back_typed_and_absent_ones_as_none() {
        let args = parse_line("--scale 12 --tiny --json -").unwrap().unwrap();
        assert!(args.switch("--tiny"));
        assert_eq!(args.number("--scale"), Some(12));
        assert_eq!(args.text("--json"), Some("-"));
        let none = parse_line("").unwrap().unwrap();
        assert!(!none.switch("--tiny"));
        assert_eq!(none.number("--scale"), None);
    }

    #[test]
    fn help_wins_wherever_it_appears() {
        assert_eq!(parse_line("--help"), Ok(None));
        assert_eq!(parse_line("--scale 3 -h"), Ok(None));
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        let err = parse_line("--scale 3 --sclae 4").unwrap_err();
        assert!(err.contains("'--sclae'"), "{err}");
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert!(parse_line("--scale").unwrap_err().contains("--scale"));
        // The next flag is not a value.
        assert!(parse_line("--json --tiny").unwrap_err().contains("--json"));
    }

    #[test]
    fn an_unparsable_number_is_an_error() {
        let err = parse_line("--scale abc").unwrap_err();
        assert!(err.contains("--scale") && err.contains("'abc'"), "{err}");
        assert!(parse_line("--scale -3").is_err());
    }
}
