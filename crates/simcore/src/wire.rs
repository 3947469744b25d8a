//! The wire vocabulary every schema table is written in.
//!
//! A value that travels in a [`crate::telemetry::TelemetryEvent`] is a
//! [`Field`]: it knows its canonical byte encoding (what trace digests
//! hash) and its JSONL rendering (what `urb trace` reads back). The
//! layout rule is by type — `u8`, `bool` and the fieldless code enums
//! take one byte, every other integer and both time types take a
//! little-endian `u64` — so a table row only has to name a field's type.
//!
//! [`code_enum!`](crate::code_enum) declares a fieldless enum whose
//! variants each carry a stable wire code and a stable text label, one
//! row per variant; the enum, `ALL`, `code()`, `label()`, `from_label()`
//! and its [`Field`] impl all come from that one row.

use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// One scalar of an event: canonical bytes out, JSON text out and in.
pub trait Field: Copy {
    /// Appends the value's canonical byte encoding to `buf`.
    fn put(self, buf: &mut Vec<u8>);

    /// Appends the value's JSON rendering to `out`.
    fn write_json(self, out: &mut String);

    /// Parses the value from the start of `rest`, the text that follows
    /// its key's colon in a flat JSON object.
    fn parse_json(rest: &str) -> Result<Self, String>;
}

/// The text following `"key":` in a flat JSON object line.
fn find_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let idx = line.find(&pat)?;
    Some(line[idx + pat.len()..].trim_start())
}

/// Reads string field `key` of a flat JSON object line.
pub(crate) fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = find_key(line, key)?.strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

/// Reads field `key` of a flat JSON object line as a `T`, with a checked
/// conversion: a value that does not fit `T` is an error naming the
/// field, never a silent truncation.
pub(crate) fn field<T: Field>(line: &str, key: &str) -> Result<T, String> {
    let rest = find_key(line, key).ok_or_else(|| format!("missing field \"{key}\""))?;
    T::parse_json(rest).map_err(|e| format!("field \"{key}\": {e}"))
}

/// The leading run of `rest` that `accept` takes, as one token.
fn token(rest: &str, accept: fn(char) -> bool) -> &str {
    &rest[..rest.find(|c| !accept(c)).unwrap_or(rest.len())]
}

fn parse_int<T: std::str::FromStr>(rest: &str, ty: &str) -> Result<T, String> {
    let digits = token(rest, |c| c.is_ascii_digit());
    if digits.is_empty() {
        return Err("not an unsigned integer".to_string());
    }
    // All digits, so the only way to fail is not fitting `T`.
    digits
        .parse()
        .map_err(|_| format!("{digits} out of range for {ty}"))
}

impl Field for u8 {
    #[inline]
    fn put(self, buf: &mut Vec<u8>) {
        buf.push(self);
    }

    fn write_json(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn parse_json(rest: &str) -> Result<Self, String> {
        parse_int(rest, "u8")
    }
}

macro_rules! wide_int_fields {
    ($($ty:ident),+) => {$(
        impl Field for $ty {
            #[inline]
            fn put(self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&(self as u64).to_le_bytes());
            }

            fn write_json(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn parse_json(rest: &str) -> Result<Self, String> {
                parse_int(rest, stringify!($ty))
            }
        }
    )+};
}

wide_int_fields!(u16, u32, u64, usize);

macro_rules! micros_fields {
    ($($ty:ident),+) => {$(
        impl Field for $ty {
            #[inline]
            fn put(self, buf: &mut Vec<u8>) {
                self.as_micros().put(buf);
            }

            fn write_json(self, out: &mut String) {
                self.as_micros().write_json(out);
            }

            fn parse_json(rest: &str) -> Result<Self, String> {
                u64::parse_json(rest).map($ty::from_micros)
            }
        }
    )+};
}

micros_fields!(SimTime, SimDuration);

impl Field for bool {
    #[inline]
    fn put(self, buf: &mut Vec<u8>) {
        buf.push(u8::from(self));
    }

    fn write_json(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }

    fn parse_json(rest: &str) -> Result<Self, String> {
        match token(rest, |c| c.is_ascii_alphanumeric()) {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("\"{other}\" is not a boolean")),
        }
    }
}

/// Declares a fieldless enum with a stable wire code and text label per
/// variant, one row each: `Variant = code => "label"`.
///
/// Generates the enum (`Clone, Copy, PartialEq, Eq, Debug`, plus any
/// attributes written above it), `ALL` in row order, `code()`, `label()`,
/// `from_label()` and a one-byte [`Field`](crate::wire::Field) impl whose
/// JSON form is the label.
#[macro_export]
macro_rules! code_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $code:literal => $label:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        $vis enum $name {
            $( $(#[$vmeta])* $variant = $code ),+
        }

        impl $name {
            /// Every variant, in declaration order.
            $vis const ALL: &'static [$name] = &[$($name::$variant),+];

            /// The variant's stable wire code.
            $vis const fn code(self) -> u8 {
                self as u8
            }

            /// The variant's stable text label.
            $vis const fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label),+
                }
            }

            /// Resolves a label back to its variant.
            $vis fn from_label(label: &str) -> Option<$name> {
                $name::ALL.iter().copied().find(|v| v.label() == label)
            }
        }

        impl $crate::wire::Field for $name {
            #[inline]
            fn put(self, buf: &mut Vec<u8>) {
                buf.push(self.code());
            }

            fn write_json(self, out: &mut String) {
                out.push('"');
                out.push_str(self.label());
                out.push('"');
            }

            fn parse_json(rest: &str) -> Result<Self, String> {
                let label = rest
                    .strip_prefix('"')
                    .and_then(|s| s.split_once('"'))
                    .map(|(label, _)| label)
                    .ok_or("not a string")?;
                $name::from_label(label)
                    .ok_or_else(|| format!("unknown {} \"{label}\"", stringify!($name)))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    code_enum! {
        /// A test enum.
        #[derive(PartialOrd, Ord)]
        enum Colour {
            /// Red.
            Red = 0 => "red",
            /// Green.
            Green = 1 => "green",
        }
    }

    #[test]
    fn code_enum_generates_every_surface_from_one_row() {
        assert_eq!(Colour::ALL, &[Colour::Red, Colour::Green]);
        assert_eq!(Colour::Green.code(), 1);
        assert_eq!(Colour::Green.label(), "green");
        assert_eq!(Colour::from_label("red"), Some(Colour::Red));
        assert_eq!(Colour::from_label("blue"), None);
        assert!(Colour::Red < Colour::Green);
        assert_eq!(bytes(Colour::Green), [1]);
        assert_eq!(field::<Colour>("{\"c\":\"green\"}", "c"), Ok(Colour::Green));
        assert_eq!(
            field::<Colour>("{\"c\":\"blue\"}", "c"),
            Err("field \"c\": unknown Colour \"blue\"".to_string())
        );
    }

    fn bytes(value: impl Field) -> Vec<u8> {
        let mut buf = Vec::new();
        value.put(&mut buf);
        buf
    }

    #[test]
    fn layout_is_one_byte_or_a_little_endian_u64() {
        assert_eq!(bytes(7u8), [7]);
        assert_eq!(bytes(true), [1]);
        let wide = 0x0102u64.to_le_bytes();
        assert_eq!(bytes(0x0102u16), wide);
        assert_eq!(bytes(0x0102u32), wide);
        assert_eq!(bytes(0x0102u64), wide);
        assert_eq!(bytes(0x0102usize), wide);
        assert_eq!(bytes(SimTime::from_micros(0x0102)), wide);
        assert_eq!(bytes(SimDuration::from_micros(0x0102)), wide);
    }

    #[test]
    fn parsing_is_checked_not_truncating() {
        assert_eq!(field::<u16>("{\"op\":65535}", "op"), Ok(65535));
        assert_eq!(
            field::<u16>("{\"op\":70000,\"x\":1}", "op"),
            Err("field \"op\": 70000 out of range for u16".to_string())
        );
        assert_eq!(
            field::<u64>("{\"n\":99999999999999999999}", "n"),
            Err("field \"n\": 99999999999999999999 out of range for u64".to_string())
        );
        assert_eq!(
            field::<u64>("{\"n\":-1}", "n"),
            Err("field \"n\": not an unsigned integer".to_string())
        );
        assert_eq!(
            field::<u64>("{\"m\":1}", "n"),
            Err("missing field \"n\"".to_string())
        );
        assert_eq!(field::<bool>("{\"ok\":true}", "ok"), Ok(true));
        assert_eq!(field::<bool>("{\"ok\": false }", "ok"), Ok(false));
        assert_eq!(
            field::<bool>("{\"ok\":truex}", "ok"),
            Err("field \"ok\": \"truex\" is not a boolean".to_string())
        );
        assert_eq!(
            field::<SimTime>("{\"at_us\":1500000}", "at_us"),
            Ok(SimTime::from_millis(1500))
        );
    }
}
