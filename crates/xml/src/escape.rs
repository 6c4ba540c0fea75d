//! Escaping and unescaping of XML character data and attribute values.

use crate::error::{Result, XmlError};
use std::borrow::Cow;

/// Escape a string for use as XML character data (text content).
///
/// Only `&`, `<` and `>` are escaped; quotes are left alone, which keeps the
/// output compact and is valid for text nodes.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, false)
}

/// Escape a string for use inside a double-quoted attribute value.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, true)
}

fn escape_with(s: &str, quotes: bool) -> Cow<'_, str> {
    let needs = s.bytes().any(|b| matches!(b, b'&' | b'<' | b'>') || (quotes && (b == b'"' || b == b'\'')));
    if !needs {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    escape_into(s, quotes, &mut out);
    Cow::Owned(out)
}

/// Append `s` to `out` escaped as [`escape_text`] does, or as
/// [`escape_attr`] does when `quotes`. The bytes escaped are ASCII, which
/// never occur inside a multi-byte UTF-8 sequence, so the runs between them
/// are whole characters.
pub fn escape_into(s: &str, quotes: bool, out: &mut String) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quotes => "&quot;",
            b'\'' if quotes => "&apos;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Resolve the predefined XML entities and numeric character references in
/// `s`, returning the unescaped text.
///
/// `offset` is the byte position of `s` in the larger document and is only
/// used for error reporting.
pub fn unescape(s: &str, offset: usize) -> Result<Cow<'_, str>> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + 1..];
        let end = after
            .find(';')
            .ok_or_else(|| XmlError::new(offset + pos, "unterminated entity reference"))?;
        let ent = &after[..end];
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| XmlError::new(offset + pos, format!("bad hex char ref &{ent};")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::new(offset + pos, "char ref out of range"))?,
                );
            }
            _ if ent.starts_with('#') => {
                let code = ent[1..]
                    .parse::<u32>()
                    .map_err(|_| XmlError::new(offset + pos, format!("bad char ref &{ent};")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::new(offset + pos, "char ref out of range"))?,
                );
            }
            _ => {
                return Err(XmlError::new(offset + pos, format!("unknown entity &{ent};")));
            }
        }
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip_text() {
        let raw = "a < b && c > \"d\"";
        let esc = escape_text(raw);
        assert_eq!(esc, "a &lt; b &amp;&amp; c &gt; \"d\"");
        assert_eq!(unescape(&esc, 0).unwrap(), raw);
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
        assert_eq!(escape_attr("it's"), "it&apos;s");
    }

    #[test]
    fn escaping_into_a_buffer_appends_the_escaped_text() {
        let mut out = String::from("x");
        escape_into("é < 日本 & 'q' \"", false, &mut out);
        escape_into("é < 日本 & 'q' \"", true, &mut out);
        assert_eq!(out, "xé &lt; 日本 &amp; 'q' \"é &lt; 日本 &amp; &apos;q&apos; &quot;");
    }

    #[test]
    fn borrowed_when_clean() {
        assert!(matches!(escape_text("plain"), Cow::Borrowed(_)));
        assert!(matches!(unescape("plain", 0).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn numeric_refs() {
        assert_eq!(unescape("&#65;&#x42;", 0).unwrap(), "AB");
        assert_eq!(unescape("&#x1F600;", 0).unwrap(), "\u{1F600}");
    }

    #[test]
    fn bad_entity_is_error() {
        assert!(unescape("&bogus;", 0).is_err());
        assert!(unescape("&unterminated", 0).is_err());
        assert!(unescape("&#xZZ;", 0).is_err());
        assert!(unescape("&#1114112;", 0).is_err()); // > char::MAX
    }
}
