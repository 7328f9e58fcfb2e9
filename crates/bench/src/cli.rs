//! Minimal command-line parsing shared by the figure binaries.
//!
//! The binaries take a handful of `--name value` overrides on top of their
//! defaults; this helper keeps the parsing in one place without pulling in
//! an argument-parsing dependency.  Both `--name value` and `--name=value`
//! spellings are accepted.  One rule decides what a run accepts: every
//! argument must be read, and [`Args::finish`] rejects any that no read
//! took.  A bad option is an `Err` message, never a panic: every binary
//! hands it to [`exit_usage`], which prints it and exits 2.

use std::fmt::Display;
use std::str::FromStr;

/// A parsed argument list.
///
/// # Example
///
/// ```
/// use heracles_bench::cli::Args;
/// let mut args = Args::from_vec(vec!["--fast".into(), "--leaves=6".into()]);
/// assert_eq!(args.flag("--fast"), Ok(true));
/// assert_eq!(args.value("--leaves", 12usize), Ok(6));
/// assert_eq!(args.value("--steps", 144usize), Ok(144));
/// assert_eq!(args.finish(), Ok(()));
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    argv: Vec<String>,
    /// Per `argv` slot: whether a read took it, as an option or its value.
    read: Vec<bool>,
    /// Every option name the run asked for, once per read.
    asked: Vec<String>,
}

impl Args {
    /// Captures the process arguments (without the program name).
    pub fn from_env() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Wraps an explicit argument list (used by tests).
    pub fn from_vec(argv: Vec<String>) -> Self {
        Args { read: vec![false; argv.len()], argv, asked: Vec::new() }
    }

    /// True if the bare flag is present.
    ///
    /// # Errors
    ///
    /// Returns a usage message if the flag is given a value
    /// (`--name=value`): a flag takes none, so the value would otherwise be
    /// dropped without a word.
    pub fn flag(&mut self, name: &str) -> Result<bool, String> {
        self.asked.push(name.to_string());
        let prefix = format!("{name}=");
        let mut found = false;
        for (arg, read) in self.argv.iter().zip(&mut self.read) {
            if arg.starts_with(&prefix) {
                return Err(format!("option {name} takes no value"));
            }
            if arg == name {
                *read = true;
                found = true;
            }
        }
        Ok(found)
    }

    /// The value following `name` (or inline after `name=`), parsed as `T`;
    /// `default` when the option is absent.
    ///
    /// # Errors
    ///
    /// Returns a usage message if the option is present but has no value
    /// (an empty one, or another option in its place) or the value does not
    /// parse.
    pub fn value<T>(&mut self, name: &str, default: T) -> Result<T, String>
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
    pub fn optional<T>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.asked.push(name.to_string());
        let prefix = format!("{name}=");
        let mut found = None;
        let mut slot = 0;
        while slot < self.argv.len() {
            let (raw, next) = if let Some(inline) = self.argv[slot].strip_prefix(&prefix) {
                (inline, slot + 1)
            } else if self.argv[slot] == name {
                // An option in the value's place means the value is missing.
                let raw = self.argv.get(slot + 1).filter(|v| !v.starts_with("--"));
                (raw.map_or("", String::as_str), slot + 2)
            } else {
                slot += 1;
                continue;
            };
            if raw.is_empty() {
                return Err(format!("option {name} expects a value"));
            }
            if found.replace(raw).is_some() {
                return Err(format!("option {name} given more than once"));
            }
            self.read[slot..next].fill(true);
            slot = next;
        }
        found
            .map(|raw| raw.parse().map_err(|e| format!("invalid value {raw:?} for {name}: {e}")))
            .transpose()
    }

    /// Rejects the first argument no read took: an unknown option, a stray
    /// value, or an option this run does not use.  Call it once, after every
    /// read and before the run prints, simulates or writes anything.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the argument and the options the run
    /// reads.
    pub fn finish(&self) -> Result<(), String> {
        let Some(slot) = self.read.iter().position(|&read| !read) else {
            return Ok(());
        };
        let mut asked = self.asked.clone();
        asked.sort();
        asked.dedup();
        let arg = &self.argv[slot];
        let unread = if arg.starts_with("--") {
            format!("option {}", arg.split_once('=').map_or(arg.as_str(), |(name, _)| name))
        } else {
            format!("argument {arg:?}")
        };
        Err(if asked.is_empty() {
            format!("unexpected {unread} (this program takes no options)")
        } else {
            format!("unexpected {unread} (this run reads only: {})", asked.join(" "))
        })
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
        let mut a = args(&["--fast", "--leaves", "8", "--seed=7"]);
        assert_eq!(a.flag("--fast"), Ok(true));
        assert_eq!(a.flag("--quick"), Ok(false));
        assert_eq!(a.value("--leaves", 12usize), Ok(8));
        assert_eq!(a.value("--seed", 42u64), Ok(7));
        assert_eq!(a.value("--steps", 144usize), Ok(144));
    }

    /// Reads `--fast`, `--leaves` and `--seed` from `list`, then finishes.
    fn finish_after_reads(list: &[&str]) -> Result<(), String> {
        let mut a = args(list);
        a.flag("--fast")?;
        a.value("--leaves", 12usize)?;
        a.value("--seed", 42u64)?;
        a.finish()
    }

    #[test]
    fn unknown_options_are_rejected_in_both_spellings() {
        assert_eq!(finish_after_reads(&["--fast", "--leaves", "8", "--seed=7"]), Ok(()));
        assert_eq!(finish_after_reads(&[]), Ok(()));
        let err = finish_after_reads(&["--fast", "--overhead-gate", "5"]).unwrap_err();
        assert!(err.contains("--overhead-gate") && err.contains("--leaves"), "{err}");
        let err = finish_after_reads(&["--leaves=8", "--sedd=7"]).unwrap_err();
        assert!(err.contains("--sedd") && !err.contains("=7"), "{err}");
        let err = args(&["--fast"]).finish().unwrap_err();
        assert!(err.contains("--fast") && err.contains("no options"), "{err}");
    }

    #[test]
    fn flag_only_programs_reject_values_too() {
        let quick = |list: &[&str]| {
            let mut a = args(list);
            a.flag("--quick").and_then(|_| a.finish())
        };
        assert_eq!(quick(&[]), Ok(()));
        assert_eq!(quick(&["--quick"]), Ok(()));
        for bad in [&["--quik"][..], &["--quick", "5"], &["--quick=yes"], &["quick"]] {
            assert!(quick(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn an_option_read_twice_is_still_accepted() {
        let mut a = args(&["--leaves", "8", "--fast"]);
        assert_eq!(a.value("--leaves", 1usize), Ok(8));
        assert_eq!(a.value("--leaves", 1u64), Ok(8));
        assert_eq!(a.flag("--fast"), Ok(true));
        assert_eq!(a.flag("--fast"), Ok(true));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn a_flag_given_a_value_is_an_error() {
        for list in [&["--fast=yes"][..], &["--fast", "--fast=1"], &["--fast="]] {
            let err = args(list).flag("--fast").unwrap_err();
            assert!(err.contains("--fast") && err.contains("no value"), "{list:?}: {err}");
        }
        assert_eq!(args(&["--fastest=1"]).flag("--fast"), Ok(false));
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
        let mut a = args(&["--policy", "first-fit"]);
        assert_eq!(a.value("--policy", "all".to_string()), Ok("first-fit".to_string()));
    }

    #[test]
    fn generation_mixes_parse_via_fromstr() {
        use heracles_fleet::GenerationMix;
        let mut a = args(&["--mix", "0.25:0.25"]);
        assert_eq!(
            a.value("--mix", GenerationMix::homogeneous()),
            Ok(GenerationMix::mixed_datacenter())
        );
        let mut b = args(&["--mix=mixed"]);
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
        let missing =
            [&["--leaves"][..], &["--leaves="], &["--leaves", ""], &["--leaves", "--fast"]];
        for list in missing {
            let err = args(list).value("--leaves", 1usize).unwrap_err();
            assert!(err.contains("--leaves") && err.contains("expects a value"), "{list:?}: {err}");
        }
    }

    #[test]
    fn unparsable_value_is_an_error() {
        let err = args(&["--leaves", "many"]).value("--leaves", 1usize).unwrap_err();
        assert!(err.contains("invalid value"), "{err}");
    }
}
