//! Shared CSV rendering helpers.
//!
//! The workspace's CSV exporters (the fleet's step table and job ledger,
//! `FleetResult::to_csv` / `jobs_to_csv`) share one document shape: a
//! header line, then one row per record with fixed-precision floats and
//! bare integers.  This module keeps the formatting and escaping rules in
//! one place.
//!
//! Fields are written eagerly; [`CsvRow::end`] terminates the row.  A field
//! containing a comma, quote, carriage return or newline is quoted with
//! doubled inner quotes per RFC 4180, so a free-form name can never corrupt
//! the table.
//!
//! # Example
//!
//! ```
//! use heracles_sim::csv::CsvRow;
//! let mut out = String::from("time_s,value,label\n");
//! CsvRow::new(&mut out).f64(1.5, 3).int(7).str("a,b").end();
//! assert_eq!(out, "time_s,value,label\n1.500,7,\"a,b\"\n");
//! ```

use std::fmt::Write as _;

/// Escapes one CSV field per RFC 4180: returned verbatim unless it contains
/// a comma, double quote or line break, in which case it is wrapped in
/// double quotes with inner quotes doubled.
pub fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Appends a float with the given number of decimals (the `{:.d$}` shape all
/// exporters use) to `out` without allocating an intermediate `String`.
pub fn push_f64(out: &mut String, value: f64, decimals: usize) {
    let _ = write!(out, "{value:.decimals$}");
}

/// One CSV row under construction.  Fields are appended eagerly with a
/// leading comma after the first; [`CsvRow::end`] writes the terminating
/// newline.  Dropping a row without calling [`CsvRow::end`] leaves the line
/// open, which lets callers assemble a row from several loops.
pub struct CsvRow<'a> {
    out: &'a mut String,
    cols: usize,
}

impl<'a> CsvRow<'a> {
    /// Starts a row that appends to `out`.
    pub fn new(out: &'a mut String) -> Self {
        CsvRow { out, cols: 0 }
    }

    /// Continues a row whose earlier fields were already written to `out`
    /// (the next field gets a leading comma).
    pub fn resume(out: &'a mut String) -> Self {
        CsvRow { out, cols: 1 }
    }

    fn sep(&mut self) {
        if self.cols > 0 {
            self.out.push(',');
        }
        self.cols += 1;
    }

    /// A float field with fixed decimals.
    pub fn f64(mut self, value: f64, decimals: usize) -> Self {
        self.sep();
        push_f64(self.out, value, decimals);
        self
    }

    /// An optional float field: fixed decimals when present, empty when not.
    pub fn opt_f64(mut self, value: Option<f64>, decimals: usize) -> Self {
        self.sep();
        if let Some(v) = value {
            push_f64(self.out, v, decimals);
        }
        self
    }

    /// An integer field.
    pub fn int(mut self, value: impl Into<i128>) -> Self {
        self.sep();
        let _ = write!(self.out, "{}", value.into());
        self
    }

    /// A boolean rendered as `1`/`0` (the workspace convention for flag
    /// columns such as `slo_met` and `censored`).
    pub fn bool01(self, value: bool) -> Self {
        self.int(u8::from(value))
    }

    /// A string field, escaped per [`escape`].
    pub fn str(mut self, value: &str) -> Self {
        self.sep();
        self.out.push_str(&escape(value));
        self
    }

    /// Terminates the row with a newline.
    pub fn end(self) {
        self.out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through_unquoted() {
        assert_eq!(escape("websearch"), "websearch");
        assert_eq!(escape(""), "");
    }

    #[test]
    fn delimiters_and_quotes_are_quoted_and_doubled() {
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn row_builder_matches_the_legacy_format_strings() {
        let mut out = String::new();
        CsvRow::new(&mut out).f64(0.123456789, 6).f64(0.5, 4).bool01(true).int(12u64).end();
        assert_eq!(out, "0.123457,0.5000,1,12\n");
    }

    #[test]
    fn optional_floats_render_empty_when_absent() {
        let mut out = String::new();
        CsvRow::new(&mut out).opt_f64(None, 3).opt_f64(Some(2.0), 3).end();
        assert_eq!(out, ",2.000\n");
    }

    #[test]
    fn resume_continues_an_open_row() {
        let mut out = String::new();
        CsvRow::new(&mut out).int(1i32);
        CsvRow::resume(&mut out).int(2i32).end();
        assert_eq!(out, "1,2\n");
    }
}
