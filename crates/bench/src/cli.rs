//! Minimal command-line parsing shared by the figure binaries.
//!
//! The binaries take a handful of `--name value` overrides on top of their
//! defaults; this helper keeps the parsing in one place without pulling in
//! an argument-parsing dependency.  Both `--name value` and `--name=value`
//! spellings are accepted, and [`Args::reject_unknown`] lets a binary refuse
//! options it does not understand instead of silently ignoring them.  A bad
//! option is an `Err` message, never a panic: every binary hands it to
//! [`exit_usage`], which prints it and exits 2.

use std::fmt::Display;
use std::str::FromStr;

/// A parsed argument list.
///
/// # Example
///
/// ```
/// use heracles_bench::cli::Args;
/// let args = Args::from_vec(vec!["--fast".into(), "--leaves=6".into()]);
/// assert!(args.flag("--fast"));
/// assert_eq!(args.value("--leaves", 12usize), Ok(6));
/// assert_eq!(args.value("--steps", 144usize), Ok(144));
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Captures the process arguments (without the program name).
    pub fn from_env() -> Self {
        Args { argv: std::env::args().skip(1).collect() }
    }

    /// Wraps an explicit argument list (used by tests).
    pub fn from_vec(argv: Vec<String>) -> Self {
        Args { argv }
    }

    /// True if the bare flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    /// The value following `name` (or inline after `name=`), parsed as `T`;
    /// `default` when the option is absent.
    ///
    /// # Errors
    ///
    /// Returns a usage message if the option is present but has no value
    /// or the value does not parse.
    pub fn value<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        Ok(self.optional(name)?.unwrap_or(default))
    }

    /// Like [`Args::value`], but `None` when the option is absent, so a
    /// caller can tell an option given its default value from one not given.
    ///
    /// # Errors
    ///
    /// As for [`Args::value`], and a usage message if the option is given
    /// more than once (in either spelling).
    pub fn optional<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let prefix = format!("{name}=");
        let mut found = None;
        let mut argv = self.argv.iter();
        while let Some(arg) = argv.next() {
            let raw = if let Some(inline) = arg.strip_prefix(&prefix) {
                inline
            } else if arg == name {
                argv.next().ok_or_else(|| format!("option {name} expects a value"))?
            } else {
                continue;
            };
            if found.replace(raw).is_some() {
                return Err(format!("option {name} given more than once"));
            }
        }
        found
            .map(|raw| raw.parse().map_err(|e| format!("invalid value {raw:?} for {name}: {e}")))
            .transpose()
    }

    /// Checks every `--option` (either spelling) against `known`, so a typo
    /// or a retired option is an error instead of being silently ignored.
    /// Arguments without the `--` prefix are taken as option values.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for arg in self.argv.iter().filter(|a| a.starts_with("--")) {
            let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
            if !known.contains(&name) {
                return Err(if known.is_empty() {
                    format!("unknown option {name} (this program takes no options)")
                } else {
                    format!("unknown option {name} (expected one of: {})", known.join(" "))
                });
            }
        }
        Ok(())
    }

    /// Like [`Args::reject_unknown`] for a program whose options are all
    /// bare flags: any argument that is not exactly one of `known` is an
    /// error, a stray value included.
    pub fn reject_all_but_flags(&self, known: &[&str]) -> Result<(), String> {
        self.reject_unknown(known)?;
        match self.argv.iter().find(|a| !known.contains(&a.as_str())) {
            Some(arg) => Err(format!("unexpected argument {arg:?}")),
            None => Ok(()),
        }
    }
}

/// Prints a usage error after the program's name and exits with status 2.
pub fn exit_usage(message: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let program = std::path::Path::new(&argv0).file_stem().and_then(|s| s.to_str());
    eprintln!("{}: {message}", program.unwrap_or("error"));
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_vec(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_and_values_parse_in_both_spellings() {
        let a = args(&["--fast", "--leaves", "8", "--seed=7"]);
        assert!(a.flag("--fast"));
        assert!(!a.flag("--quick"));
        assert_eq!(a.value("--leaves", 12usize), Ok(8));
        assert_eq!(a.value("--seed", 42u64), Ok(7));
        assert_eq!(a.value("--steps", 144usize), Ok(144));
    }

    #[test]
    fn unknown_options_are_rejected_in_both_spellings() {
        let known = ["--fast", "--leaves", "--seed"];
        assert_eq!(args(&["--fast", "--leaves", "8", "--seed=7"]).reject_unknown(&known), Ok(()));
        assert_eq!(args(&[]).reject_unknown(&known), Ok(()));
        let err = args(&["--fast", "--overhead-gate", "5"]).reject_unknown(&known).unwrap_err();
        assert!(err.contains("--overhead-gate"), "{err}");
        let err = args(&["--leaves=8", "--sedd=7"]).reject_unknown(&known).unwrap_err();
        assert!(err.contains("--sedd") && !err.contains("=7"), "{err}");
        let err = args(&["--fast"]).reject_unknown(&[]).unwrap_err();
        assert!(err.contains("--fast") && err.contains("no options"), "{err}");
    }

    #[test]
    fn flag_only_programs_reject_values_too() {
        let known = ["--quick"];
        assert_eq!(args(&[]).reject_all_but_flags(&known), Ok(()));
        assert_eq!(args(&["--quick"]).reject_all_but_flags(&known), Ok(()));
        for bad in [&["--quik"][..], &["--quick", "5"], &["--quick=yes"], &["quick"]] {
            assert!(args(bad).reject_all_but_flags(&known).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn optional_values_tell_absent_from_given() {
        assert_eq!(args(&[]).optional::<f64>("--power-cap"), Ok(None));
        assert_eq!(args(&["--power-cap", "0"]).optional("--power-cap"), Ok(Some(0.0)));
        assert_eq!(args(&["--power-cap=-5"]).optional("--power-cap"), Ok(Some(-5.0)));
        assert!(args(&["--power-cap"]).optional::<f64>("--power-cap").is_err());
    }

    #[test]
    fn a_repeated_option_is_an_error_in_either_spelling() {
        for list in [
            &["--seed", "1", "--seed", "2"][..],
            &["--seed=1", "--seed=2"],
            &["--seed", "1", "--fast", "--seed=1"],
        ] {
            let err = args(list).value("--seed", 42u64).unwrap_err();
            assert!(err.contains("--seed") && err.contains("more than once"), "{list:?}: {err}");
        }
    }

    #[test]
    fn string_values_parse_too() {
        let a = args(&["--policy", "first-fit"]);
        assert_eq!(a.value("--policy", "all".to_string()), Ok("first-fit".to_string()));
    }

    #[test]
    fn generation_mixes_parse_via_fromstr() {
        use heracles_fleet::GenerationMix;
        let a = args(&["--mix", "0.25:0.25"]);
        assert_eq!(
            a.value("--mix", GenerationMix::homogeneous()),
            Ok(GenerationMix::mixed_datacenter())
        );
        let b = args(&["--mix=mixed"]);
        assert_eq!(
            b.value("--mix", GenerationMix::homogeneous()),
            Ok(GenerationMix::mixed_datacenter())
        );
        assert_eq!(
            args(&[]).value("--mix", GenerationMix::homogeneous()),
            Ok(GenerationMix::homogeneous())
        );
    }

    #[test]
    fn bad_mix_value_is_an_error() {
        let err = args(&["--mix", "lots-of-everything"])
            .value("--mix", heracles_fleet::GenerationMix::homogeneous())
            .unwrap_err();
        assert!(err.contains("invalid value"), "{err}");
    }

    #[test]
    fn trailing_option_without_value_is_an_error() {
        let err = args(&["--leaves"]).value("--leaves", 1usize).unwrap_err();
        assert!(err.contains("expects a value"), "{err}");
    }

    #[test]
    fn unparsable_value_is_an_error() {
        let err = args(&["--leaves", "many"]).value("--leaves", 1usize).unwrap_err();
        assert!(err.contains("invalid value"), "{err}");
    }
}
