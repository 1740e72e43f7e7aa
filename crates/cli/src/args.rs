//! Dependency-free command-line argument parsing.
//!
//! The tool intentionally avoids an argument-parsing crate: the grammar is
//! tiny (`deltanet <command> [--flag value]...`), and keeping it hand-rolled
//! keeps the dependency list identical to the library crates'.

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: the sub-command name plus `--key value` options
/// and bare `--switch` flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The sub-command (first positional argument).
    pub command: String,
    /// The word after the sub-command, which only `paper <table>` takes.
    pub operand: Option<String>,
    /// `--key value` pairs.
    pub options: HashMap<String, String>,
    /// Bare `--switch` flags.
    pub flags: Vec<String>,
}

/// Errors produced while parsing the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No sub-command was given.
    MissingCommand,
    /// A positional argument appeared where an option was expected.
    UnexpectedPositional(String),
    /// A required option is missing.
    MissingOption(&'static str),
    /// An argument the command does not read in the form given: an unknown
    /// name, a value after a flag, or an option without its value.
    Refused {
        /// The sub-command.
        command: String,
        /// The argument as given.
        arg: String,
        /// What is wrong with it.
        problem: &'static str,
    },
    /// An option has an invalid value.
    InvalidValue {
        /// The option name.
        option: String,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing command; try `deltanet help`"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument `{p}`"),
            ArgError::MissingOption(o) => write!(f, "missing required option --{o}"),
            ArgError::Refused {
                command,
                arg,
                problem,
            } => write!(f, "`deltanet {command}` {problem}: `{arg}`"),
            ArgError::InvalidValue {
                option,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for --{option} (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::UnexpectedPositional(command));
        }
        let mut parsed = ParsedArgs {
            command,
            ..Default::default()
        };
        if parsed.command == "paper" {
            parsed.operand = iter.next_if(|arg| !arg.starts_with("--"));
        }
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    parsed.options.insert(key.to_string(), value.to_string());
                } else if iter.peek().is_some_and(|next| !next.starts_with("--")) {
                    parsed
                        .options
                        .insert(name.to_string(), iter.next().unwrap());
                } else {
                    parsed.flags.push(name.to_string());
                }
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(parsed)
    }

    /// Refuses every argument the command does not read: an unknown
    /// name, a value given to one of `flags`, or one of `options` given
    /// without a value. Both lists are space-separated names; a name in
    /// both may be given either way.
    pub fn check(&self, options: &str, flags: &str) -> Result<(), ArgError> {
        let reads = |names: &str, name: &str| names.split_whitespace().any(|n| n == name);
        let mut given: Vec<_> = self.options.iter().collect();
        given.sort();
        let (arg, problem) = if let Some(flag) = self.flags.iter().find(|f| !reads(flags, f)) {
            let problem = if reads(options, flag) {
                "needs a value after"
            } else {
                "takes no argument"
            };
            (format!("--{flag}"), problem)
        } else if let Some((name, value)) = given.into_iter().find(|(n, _)| !reads(options, n)) {
            if reads(flags, name) {
                (format!("--{name} {value}"), "takes no value after the flag")
            } else {
                (format!("--{name}"), "takes no argument")
            }
        } else {
            return Ok(());
        };
        let command = self.command.clone();
        Err(ArgError::Refused {
            command,
            arg,
            problem,
        })
    }

    /// The value of a required option.
    pub fn require(&self, name: &'static str) -> Result<&str, ArgError> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or(ArgError::MissingOption(name))
    }

    /// The value of an optional option, with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.options
            .get(name)
            .map(String::as_str)
            .unwrap_or(default)
    }

    /// Whether a bare flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Parses an optional `--<name> <usize>` option.
pub fn parse_usize_option(args: &ParsedArgs, name: &str) -> Result<Option<usize>, ArgError> {
    match args.options.get(name) {
        None => Ok(None),
        Some(value) => value
            .parse::<usize>()
            .map(Some)
            .map_err(|_| ArgError::InvalidValue {
                option: name.to_string(),
                value: value.clone(),
                expected: "a non-negative integer",
            }),
    }
}

/// Parses a `--durability` value (defaults to `flush`, the write-per-batch
/// no-fsync level the persistence layer also defaults to).
pub fn parse_durability(args: &ParsedArgs) -> Result<deltanet::Durability, ArgError> {
    let value = args.get_or("durability", "flush");
    value.parse().map_err(|_| ArgError::InvalidValue {
        option: "durability".to_string(),
        value: value.to_string(),
        expected: "buffered | flush | fsync",
    })
}

/// Parses a `--fields` value: a comma-separated list of fields, primary
/// first, each either `name:width` or a bare width or a conventional name
/// with its default width (`dst` = 32, `src` = 32, `dport` = 16). Examples:
/// `--fields dst,src:8`, `--fields 32,8,4`, `--fields dst,src,dport`.
/// Returns `None` when the option is absent (single-field default).
pub fn parse_fields(args: &ParsedArgs) -> Result<Option<Vec<u8>>, ArgError> {
    let Some(value) = args.options.get("fields") else {
        return Ok(None);
    };
    let invalid = |expected: &'static str| ArgError::InvalidValue {
        option: "fields".to_string(),
        value: value.clone(),
        expected,
    };
    let mut widths = Vec::new();
    for item in value.split(',') {
        let width_str = match item.split_once(':') {
            Some((_name, w)) => w,
            None => item,
        };
        let width = match width_str.parse::<u8>() {
            Ok(w) => w,
            Err(_) => match item {
                "dst" | "src" => 32,
                "dport" | "sport" => 16,
                _ => return Err(invalid("field items like dst, src:8, or a bit width")),
            },
        };
        if width == 0 || width > 127 {
            return Err(invalid("field widths between 1 and 127 bits"));
        }
        if !widths.is_empty() && width > netmodel::header::MAX_SECONDARY_WIDTH {
            return Err(invalid("secondary field widths of at most 63 bits"));
        }
        widths.push(width);
    }
    let max = 1 + netmodel::header::MAX_SECONDARY_FIELDS;
    if widths.is_empty() || widths.len() > max {
        return Err(invalid("between 1 and 3 fields, primary first"));
    }
    Ok(Some(widths))
}

/// Parses a `--scale` value.
pub fn parse_scale(args: &ParsedArgs) -> Result<workloads::ScaleProfile, ArgError> {
    match args.get_or("scale", "tiny") {
        "tiny" => Ok(workloads::ScaleProfile::Tiny),
        "small" => Ok(workloads::ScaleProfile::Small),
        "medium" => Ok(workloads::ScaleProfile::Medium),
        other => Err(ArgError::InvalidValue {
            option: "scale".to_string(),
            value: other.to_string(),
            expected: "tiny | small | medium",
        }),
    }
}

/// Parses a `--dataset` value.
pub fn parse_dataset(args: &ParsedArgs) -> Result<workloads::DatasetId, ArgError> {
    use workloads::DatasetId::*;
    match args.require("dataset")?.to_ascii_lowercase().as_str() {
        "berkeley" => Ok(Berkeley),
        "inet" => Ok(Inet),
        "rf1755" | "rf-1755" => Ok(Rf1755),
        "rf3257" | "rf-3257" => Ok(Rf3257),
        "rf6461" | "rf-6461" => Ok(Rf6461),
        "airtel1" | "airtel-1" => Ok(Airtel1),
        "airtel2" | "airtel-2" => Ok(Airtel2),
        "4switch" | "fourswitch" => Ok(FourSwitch),
        "churn" => Ok(Churn),
        other => Err(ArgError::InvalidValue {
            option: "dataset".to_string(),
            value: other.to_string(),
            expected:
                "berkeley | inet | rf1755 | rf3257 | rf6461 | airtel1 | airtel2 | 4switch | churn",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let p = parse(&[
            "replay",
            "--topo",
            "a.topo",
            "--checker=veriflow",
            "--loops",
        ])
        .unwrap();
        assert_eq!(p.command, "replay");
        assert_eq!(p.require("topo").unwrap(), "a.topo");
        assert_eq!(p.get_or("checker", "deltanet"), "veriflow");
        assert!(p.has_flag("loops"));
        assert!(!p.has_flag("quiet"));
        assert_eq!(p.get_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert!(matches!(
            parse(&["--oops"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
        assert!(matches!(
            parse(&["replay", "stray"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
        let p = parse(&["replay"]).unwrap();
        assert_eq!(
            p.require("topo").unwrap_err(),
            ArgError::MissingOption("topo")
        );
    }

    #[test]
    fn paper_takes_one_operand() {
        let p = parse(&["paper", "table3", "--scale", "small"]).unwrap();
        assert_eq!(p.operand.as_deref(), Some("table3"));
        assert_eq!(parse_scale(&p).unwrap(), workloads::ScaleProfile::Small);
        assert_eq!(parse(&["paper", "--scale=tiny"]).unwrap().operand, None);
        assert!(matches!(
            parse(&["paper", "table3", "table4"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn scale_and_dataset_parsing() {
        let p = parse(&["generate", "--dataset", "rf1755", "--scale", "small"]).unwrap();
        assert_eq!(parse_dataset(&p).unwrap(), workloads::DatasetId::Rf1755);
        assert_eq!(parse_scale(&p).unwrap(), workloads::ScaleProfile::Small);
        let p = parse(&["generate", "--dataset", "nope"]).unwrap();
        assert!(parse_dataset(&p).is_err());
        let p = parse(&["generate", "--dataset", "inet", "--scale", "huge"]).unwrap();
        assert!(parse_scale(&p).is_err());
        // Defaults to tiny when --scale is absent.
        let p = parse(&["generate", "--dataset", "inet"]).unwrap();
        assert_eq!(parse_scale(&p).unwrap(), workloads::ScaleProfile::Tiny);
    }

    #[test]
    fn fields_parsing() {
        // Absent → None (single-field default shape).
        let p = parse(&["replay"]).unwrap();
        assert_eq!(parse_fields(&p).unwrap(), None);
        // Named fields with explicit or default widths, and bare widths.
        let p = parse(&["replay", "--fields", "dst,src:8"]).unwrap();
        assert_eq!(parse_fields(&p).unwrap(), Some(vec![32, 8]));
        let p = parse(&["replay", "--fields", "dst,src,dport"]).unwrap();
        assert_eq!(parse_fields(&p).unwrap(), Some(vec![32, 32, 16]));
        let p = parse(&["replay", "--fields", "8,6,4"]).unwrap();
        assert_eq!(parse_fields(&p).unwrap(), Some(vec![8, 6, 4]));
        // Too many fields, unknown names, and bad widths are rejected —
        // including secondary widths past the 63-bit inline-bound cap.
        for bad in [
            "32,8,4,2",
            "dst,vlan",
            "dst,src:0",
            "dst,src:200",
            "dst,src:64",
        ] {
            let p = parse(&["replay", "--fields", bad]).unwrap();
            assert!(parse_fields(&p).is_err(), "accepted --fields {bad}");
        }
    }

    #[test]
    fn durability_parsing() {
        use deltanet::Durability;
        let p = parse(&["replay", "--durability", "fsync"]).unwrap();
        assert_eq!(parse_durability(&p).unwrap(), Durability::FsyncPerBatch);
        let p = parse(&["replay", "--durability", "buffered"]).unwrap();
        assert_eq!(parse_durability(&p).unwrap(), Durability::Buffered);
        // Defaults to flush when absent.
        let p = parse(&["replay"]).unwrap();
        assert_eq!(parse_durability(&p).unwrap(), Durability::FlushPerBatch);
        let p = parse(&["replay", "--durability", "turbo"]).unwrap();
        assert!(parse_durability(&p).is_err());
    }

    #[test]
    fn usize_option_parsing() {
        let p = parse(&["replay", "--batch", "4"]).unwrap();
        assert_eq!(parse_usize_option(&p, "batch").unwrap(), Some(4));
        assert_eq!(parse_usize_option(&p, "compact").unwrap(), None);
        let p = parse(&["replay", "--batch", "many"]).unwrap();
        assert!(parse_usize_option(&p, "batch").is_err());
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingCommand.to_string().contains("help"));
        assert!(ArgError::MissingOption("topo")
            .to_string()
            .contains("--topo"));
    }
}
