//! Schema-driven text conversion shared by the file connectors.
//!
//! Values render with their natural `Display` forms (timestamps as `8:07`
//! clock strings, intervals compactly) and parse back under schema
//! guidance, so a file written by a sink round-trips through a source with
//! the same schema.

use std::fmt::Write as _;

use onesql_types::{ColumnBuilder, DataType, Duration, Error, Result, Row, Schema, Ts, Value};

/// Parse one text field into a [`Value`] of the given type. Empty text is
/// NULL (except for strings, where it is the empty string).
pub fn parse_value(text: &str, data_type: DataType) -> Result<Value> {
    if text.is_empty() && data_type != DataType::String {
        return Ok(Value::Null);
    }
    match data_type {
        DataType::String => Ok(Value::str(text)),
        DataType::Int => text
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| Error::exec(format!("cannot parse '{text}' as BIGINT"))),
        DataType::Float => text
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::exec(format!("cannot parse '{text}' as DOUBLE"))),
        DataType::Bool => match text.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(Error::exec(format!("cannot parse '{text}' as BOOLEAN"))),
        },
        DataType::Timestamp => parse_ts(text).map(Value::Ts),
        DataType::Interval => parse_interval(text).map(Value::Interval),
        DataType::Null => Ok(Value::Null),
    }
}

/// Parse one text field directly into a column builder, skipping the
/// boxed [`Value`] for numeric and temporal fields (the columnar CSV
/// path). Returns the timestamp when the field parsed as a non-null
/// TIMESTAMP, so callers can fill an event-time lane without re-reading
/// the column. Errors are byte-identical to [`parse_value`]'s.
pub fn parse_field_into(
    text: &str,
    data_type: DataType,
    b: &mut ColumnBuilder,
) -> Result<Option<Ts>> {
    if text.is_empty() && data_type != DataType::String {
        b.push_null();
        return Ok(None);
    }
    match data_type {
        DataType::Int => b.push_int(
            text.trim()
                .parse::<i64>()
                .map_err(|_| Error::exec(format!("cannot parse '{text}' as BIGINT")))?,
        ),
        DataType::Float => b.push_float(
            text.trim()
                .parse::<f64>()
                .map_err(|_| Error::exec(format!("cannot parse '{text}' as DOUBLE")))?,
        ),
        DataType::Timestamp => {
            let t = parse_ts(text)?;
            b.push_ts(t);
            return Ok(Some(t));
        }
        DataType::Interval => b.push_interval(parse_interval(text)?),
        other => b.push(parse_value(text, other)?),
    }
    Ok(None)
}

/// Parse a timestamp: `H:MM`, `H:MM:SS.mmm` clock strings (the engine's
/// own rendering) or raw integer milliseconds.
pub fn parse_ts(text: &str) -> Result<Ts> {
    let text = text.trim();
    match text {
        "+inf" => return Ok(Ts::MAX),
        "-inf" => return Ok(Ts::MIN),
        _ => {}
    }
    if let Ok(ms) = text.parse::<i64>() {
        return Ok(Ts(ms));
    }
    let (sign, body) = match text.strip_prefix('-') {
        Some(rest) => (-1i64, rest),
        None => (1, text),
    };
    let parts: Vec<&str> = body.split(':').collect();
    let err = || Error::exec(format!("cannot parse '{text}' as TIMESTAMP"));
    match parts.as_slice() {
        [h, m] => {
            let hours: i64 = h.parse().map_err(|_| err())?;
            let minutes: i64 = m.parse().map_err(|_| err())?;
            Ok(Ts(sign * (Ts::hm(hours, minutes).millis())))
        }
        [h, m, s] => {
            let hours: i64 = h.parse().map_err(|_| err())?;
            let minutes: i64 = m.parse().map_err(|_| err())?;
            let (secs, millis) = match s.split_once('.') {
                Some((s, ms)) => {
                    if !ms.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(err());
                    }
                    // Right-pad to 3 digits: "5" -> 500ms.
                    let padded = format!("{ms:0<3}");
                    (
                        s.parse::<i64>().map_err(|_| err())?,
                        padded[..3].parse::<i64>().map_err(|_| err())?,
                    )
                }
                None => (s.parse::<i64>().map_err(|_| err())?, 0),
            };
            Ok(Ts(sign
                * (Ts::hm(hours, minutes).millis()
                    + secs * 1_000
                    + millis)))
        }
        _ => Err(err()),
    }
}

/// Parse an interval: raw integer milliseconds or a compact suffix form
/// (`250ms`, `5s`, `10m`, `2h`).
pub fn parse_interval(text: &str) -> Result<Duration> {
    let text = text.trim();
    if let Ok(ms) = text.parse::<i64>() {
        return Ok(Duration(ms));
    }
    let err = || Error::exec(format!("cannot parse '{text}' as INTERVAL"));
    let (num, scale) = if let Some(n) = text.strip_suffix("ms") {
        (n, 1)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = text.strip_suffix('m') {
        (n, 60_000)
    } else if let Some(n) = text.strip_suffix('h') {
        (n, 3_600_000)
    } else {
        return Err(err());
    };
    let n: i64 = num.trim().parse().map_err(|_| err())?;
    Ok(Duration(n * scale))
}

/// Check a record's field count against the schema's arity.
pub fn check_arity(fields: usize, schema: &Schema) -> Result<()> {
    if fields != schema.arity() {
        return Err(Error::exec(format!(
            "record has {fields} fields, schema '{schema}' expects {}",
            schema.arity()
        )));
    }
    Ok(())
}

/// Parse a full delimited record against a schema (fields in order).
pub fn parse_record(fields: &[&str], schema: &Schema) -> Result<Row> {
    check_arity(fields.len(), schema)?;
    let mut values = Vec::with_capacity(fields.len());
    for (text, field) in fields.iter().zip(schema.fields()) {
        values.push(parse_value(text, field.data_type)?);
    }
    Ok(Row::new(values))
}

/// Split one CSV line into unescaped fields (RFC-4180 quoting: fields may
/// be wrapped in `"` with embedded quotes doubled).
pub fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if field.is_empty() => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// The fields of one CSV record. A record with no `"` is split in place,
/// each field borrowed from the line; only a quoted record is unescaped
/// into owned fields by [`split_csv_line`].
pub(crate) enum CsvRecord<'a> {
    /// No quotes: the fields are the line's comma-separated slices.
    Plain(&'a str),
    /// At least one quote: the unescaped fields.
    Quoted(Vec<String>),
}

impl<'a> CsvRecord<'a> {
    pub(crate) fn split(line: &'a str) -> CsvRecord<'a> {
        if line.contains('"') {
            CsvRecord::Quoted(split_csv_line(line))
        } else {
            CsvRecord::Plain(line)
        }
    }

    /// Number of fields; counts commas for an unquoted record.
    pub(crate) fn arity(&self) -> usize {
        match self {
            CsvRecord::Plain(line) => line.bytes().filter(|&b| b == b',').count() + 1,
            CsvRecord::Quoted(fields) => fields.len(),
        }
    }

    pub(crate) fn fields(&self) -> CsvFields<'_> {
        match self {
            CsvRecord::Plain(line) => CsvFields::Plain(Some(line)),
            CsvRecord::Quoted(fields) => CsvFields::Quoted(fields.iter()),
        }
    }
}

/// Iterator over a [`CsvRecord`]'s fields.
pub(crate) enum CsvFields<'r> {
    /// The unsplit rest of an unquoted line; `None` once exhausted. (A
    /// plain byte scan: `str::split` costs several times more on the
    /// short fields of a typical record.)
    Plain(Option<&'r str>),
    Quoted(std::slice::Iter<'r, String>),
}

impl<'r> Iterator for CsvFields<'r> {
    type Item = &'r str;

    fn next(&mut self) -> Option<&'r str> {
        match self {
            CsvFields::Plain(rest) => {
                let line = (*rest)?;
                match line.bytes().position(|b| b == b',') {
                    Some(i) => {
                        *rest = line.get(i + 1..);
                        line.get(..i)
                    }
                    None => rest.take(),
                }
            }
            CsvFields::Quoted(fields) => fields.next().map(String::as_str),
        }
    }
}

/// True when every quote in the line is closed — i.e. the line is a
/// complete CSV record. Records whose quoted fields embed newlines span
/// several physical lines; readers join lines until this holds. (Bare
/// quotes inside unquoted fields are invalid CSV and not produced by
/// [`push_csv_field`].)
pub fn csv_quotes_balanced(line: &str) -> bool {
    !line.contains('"') || line.bytes().filter(|&b| b == b'"').count() % 2 == 0
}

/// Append one CSV field to `out`, quoted (embedded quotes doubled) when it
/// holds a `,`, `"`, `\n` or `\r` as RFC 4180 requires — an unquoted CR
/// before the line's end would be stripped as part of a CRLF terminator.
pub fn push_csv_field(out: &mut String, text: &str) {
    if !text
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
    {
        out.push_str(text);
        return;
    }
    out.push('"');
    for (i, part) in text.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Append `values` to `out` as one CSV record, without a line terminator.
/// NULL renders empty, strings are quoted by [`push_csv_field`], and every
/// other value writes its `Display` form in place (timestamps as clock
/// strings, intervals compactly; none of these forms needs quoting).
pub fn push_csv_row(out: &mut String, values: &[Value]) {
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            Value::Null => {}
            Value::Str(s) => push_csv_field(out, s),
            // Formatting into a String cannot fail. Ints, the common
            // case, skip `Value`'s `Display` indirection.
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    #[test]
    fn value_round_trips_through_text() {
        let cases = [
            (Value::Int(42), DataType::Int),
            (Value::Float(2.5), DataType::Float),
            (Value::Bool(true), DataType::Bool),
            (Value::str("hello, \"world\""), DataType::String),
            (Value::Ts(Ts::hm(8, 7)), DataType::Timestamp),
            (
                Value::Ts(Ts(8 * 3_600_000 + 7 * 60_000 + 5_250)),
                DataType::Timestamp,
            ),
            (
                Value::Interval(Duration::from_minutes(10)),
                DataType::Interval,
            ),
            (Value::Null, DataType::Int),
        ];
        for (value, dt) in cases {
            let text = match &value {
                Value::Null => String::new(),
                other => other.to_string(),
            };
            let back = parse_value(&text, dt).unwrap();
            assert_eq!(back, value, "via {text:?}");
        }
    }

    #[test]
    fn csv_quoting_round_trips() {
        let r = row!("a,b", "say \"hi\"", 7i64);
        let mut line = String::new();
        push_csv_row(&mut line, r.values());
        let fields = split_csv_line(&line);
        assert_eq!(fields, vec!["a,b", "say \"hi\"", "7"]);
    }

    #[test]
    fn carriage_returns_are_quoted() {
        let mut line = String::new();
        push_csv_row(&mut line, row!(1i64, "x\r", "a\rb", "").values());
        assert_eq!(line, "1,\"x\r\",\"a\rb\",");
    }

    #[test]
    fn unquoted_records_split_in_place() {
        let record = CsvRecord::split("8:07,,a b,");
        assert!(matches!(record, CsvRecord::Plain(_)));
        assert_eq!(record.arity(), 4);
        assert_eq!(record.fields().collect::<Vec<_>>(), ["8:07", "", "a b", ""]);
        let record = CsvRecord::split("1,\"a,\"\"b\"\"\",");
        assert!(matches!(record, CsvRecord::Quoted(_)));
        assert_eq!(record.arity(), 3);
        assert_eq!(record.fields().collect::<Vec<_>>(), ["1", "a,\"b\"", ""]);
    }

    #[test]
    fn timestamps_parse_from_clock_and_millis() {
        assert_eq!(parse_ts("8:07").unwrap(), Ts::hm(8, 7));
        assert_eq!(parse_ts("485000").unwrap(), Ts(485000));
        assert_eq!(parse_ts("0:00:01.500").unwrap(), Ts(1_500));
        assert_eq!(parse_ts("+inf").unwrap(), Ts::MAX);
        assert!(parse_ts("nope").is_err());
    }

    #[test]
    fn intervals_parse_from_suffix_forms() {
        assert_eq!(parse_interval("10m").unwrap(), Duration::from_minutes(10));
        assert_eq!(parse_interval("250ms").unwrap(), Duration(250));
        assert_eq!(parse_interval("5s").unwrap(), Duration(5_000));
        assert_eq!(parse_interval("2h").unwrap(), Duration(7_200_000));
        assert_eq!(parse_interval("1234").unwrap(), Duration(1234));
    }
}
