//! A minimal JSON-Schema subset validator.
//!
//! The `obs` binary (run by CI's `release-smoke` job) validates emitted
//! trace JSON against a checked-in schema. The offline `serde_json` shim has no schema
//! support, so this module implements the small subset the schema file
//! uses: `type` (including type arrays), `properties`, `required`,
//! `items`, `enum` (of strings), and nested combinations thereof.
//! Unknown schema keywords are ignored, as JSON Schema specifies.

use serde::Value;

/// Validates `value` against `schema`, returning the first violation as
/// a human-readable message with a JSON-pointer-style path.
pub fn validate(value: &Value, schema: &Value) -> Result<(), String> {
    check(value, schema, "$")
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::I64(_) | Value::U64(_) => "integer",
        Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Seq(_) => "array",
        Value::Map(_) => "object",
    }
}

fn type_matches(v: &Value, want: &str) -> bool {
    match want {
        // Integers are numbers too, per JSON Schema.
        "number" => matches!(v, Value::I64(_) | Value::U64(_) | Value::F64(_)),
        other => type_name(v) == other,
    }
}

fn check(value: &Value, schema: &Value, path: &str) -> Result<(), String> {
    let entries = match schema.as_map() {
        Some(m) => m,
        // A non-object schema (e.g. `true`) accepts everything.
        None => return Ok(()),
    };
    for (key, constraint) in entries {
        match key.as_str() {
            "type" => check_type(value, constraint, path)?,
            "enum" => check_enum(value, constraint, path)?,
            "required" => check_required(value, constraint, path)?,
            "properties" => check_properties(value, constraint, path)?,
            "items" => check_items(value, constraint, path)?,
            _ => {} // unknown keywords are ignored
        }
    }
    Ok(())
}

fn check_type(value: &Value, constraint: &Value, path: &str) -> Result<(), String> {
    let ok = match constraint {
        Value::Str(t) => type_matches(value, t),
        Value::Seq(ts) => ts.iter().any(|t| match t {
            Value::Str(t) => type_matches(value, t),
            _ => false,
        }),
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{path}: expected type {constraint:?}, got {}",
            type_name(value)
        ))
    }
}

fn check_enum(value: &Value, constraint: &Value, path: &str) -> Result<(), String> {
    let allowed = match constraint.as_seq() {
        Some(s) => s,
        None => return Ok(()),
    };
    if allowed.contains(value) {
        Ok(())
    } else {
        Err(format!("{path}: value {value:?} not in enum {allowed:?}"))
    }
}

fn check_required(value: &Value, constraint: &Value, path: &str) -> Result<(), String> {
    let (map, names) = match (value.as_map(), constraint.as_seq()) {
        (Some(m), Some(n)) => (m, n),
        _ => return Ok(()),
    };
    for name in names {
        if let Value::Str(name) = name {
            if !map.iter().any(|(k, _)| k == name) {
                return Err(format!("{path}: missing required field `{name}`"));
            }
        }
    }
    Ok(())
}

fn check_properties(value: &Value, constraint: &Value, path: &str) -> Result<(), String> {
    let (map, props) = match (value.as_map(), constraint.as_map()) {
        (Some(m), Some(p)) => (m, p),
        _ => return Ok(()),
    };
    for (name, sub) in props {
        if let Some((_, field)) = map.iter().find(|(k, _)| k == name) {
            check(field, sub, &format!("{path}.{name}"))?;
        }
    }
    Ok(())
}

fn check_items(value: &Value, constraint: &Value, path: &str) -> Result<(), String> {
    let items = match value.as_seq() {
        Some(s) => s,
        None => return Ok(()),
    };
    for (i, item) in items.iter().enumerate() {
        check(item, constraint, &format!("{path}[{i}]"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::parse_value_str;

    fn v(s: &str) -> Value {
        parse_value_str(s).unwrap()
    }

    #[test]
    fn accepts_matching_object() {
        let schema = v(r#"{
            "type": "object",
            "required": ["cycles", "trace"],
            "properties": {
                "cycles": {"type": "integer"},
                "trace": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["pc", "class"],
                        "properties": {
                            "pc": {"type": "integer"},
                            "class": {"enum": ["Singleton", "Handle"]},
                            "issue": {"type": ["integer", "null"]}
                        }
                    }
                }
            }
        }"#);
        let doc = v(r#"{
            "cycles": 10,
            "trace": [{"pc": 4, "class": "Handle", "issue": null}],
            "extra": "ignored"
        }"#);
        assert_eq!(validate(&doc, &schema), Ok(()));
    }

    #[test]
    fn rejects_missing_required() {
        let schema = v(r#"{"type": "object", "required": ["cycles"]}"#);
        let err = validate(&v("{}"), &schema).unwrap_err();
        assert!(err.contains("missing required field `cycles`"), "{err}");
    }

    #[test]
    fn rejects_wrong_type_with_path() {
        let schema = v(r#"{"properties": {"trace": {"type": "array"}}}"#);
        let err = validate(&v(r#"{"trace": 3}"#), &schema).unwrap_err();
        assert!(err.starts_with("$.trace:"), "{err}");
    }

    #[test]
    fn rejects_bad_enum_inside_array() {
        let schema = v(r#"{"items": {"enum": ["a", "b"]}}"#);
        let err = validate(&v(r#"["a", "c"]"#), &schema).unwrap_err();
        assert!(err.starts_with("$[1]:"), "{err}");
    }

    #[test]
    fn integer_counts_as_number() {
        let schema = v(r#"{"type": "number"}"#);
        assert_eq!(validate(&v("3"), &schema), Ok(()));
        assert_eq!(validate(&v("3.5"), &schema), Ok(()));
        assert!(validate(&v("\"x\""), &schema).is_err());
    }
}
