//! Machine-readable report writer: SARIF 2.1.0.
//!
//! It is hand-rolled (the linter is dependency-free by design); the
//! only subtlety is JSON string escaping, which [`escape_json`] handles
//! for the control characters a diagnostic message can legally contain.

use crate::rules::{Diagnostic, Rule};

/// Escapes a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a SARIF 2.1.0 log (one run, one result per
/// finding, rule metadata from the catalogue).
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"utilcast-lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            rule.id(),
            escape_json(rule.summary()),
            if i + 1 < Rule::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\
             \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            d.rule,
            escape_json(&d.message),
            escape_json(&d.file),
            d.line.max(1),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(message: &str) -> Diagnostic {
        Diagnostic {
            file: "crates/core/src/lib.rs".to_string(),
            line: 3,
            rule: Rule::PanicPath,
            message: message.to_string(),
        }
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let s = to_sarif(&[diag("chain a -> b")]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"utilcast-lint\""));
        assert!(s.contains("\"ruleId\": \"panic-path\""));
        assert!(s.contains("\"startLine\": 3"));
        // Every catalogue rule is declared.
        for rule in Rule::ALL {
            assert!(s.contains(&format!("\"id\": \"{}\"", rule.id())), "{rule}");
        }
    }

    #[test]
    fn empty_reports_are_valid() {
        let s = to_sarif(&[]);
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
