//! The JSON codec's own contract: offsets, accepted escapes, the typed
//! rejections, exact integers, and emit∘parse round trips.

use polar_molecule::json::{Json, JsonError, JsonWriter, MAX_DEPTH};

fn err(text: &str) -> JsonError {
    Json::parse(text).expect_err(text)
}

#[test]
fn values_carry_the_offset_of_their_first_byte() {
    let text = r#" {"a": [10, "x", true], "b": null}"#;
    let v = Json::parse(text).unwrap();
    assert_eq!(v.offset(), 1);
    let a = v.get("a").unwrap();
    assert_eq!(a.offset(), text.find('[').unwrap());
    let items = a.as_array("a").unwrap();
    assert_eq!(items[0].offset(), text.find("10").unwrap());
    assert_eq!(items[1].offset(), text.find("\"x\"").unwrap());
    assert_eq!(items[2].offset(), text.find("true").unwrap());
    assert_eq!(v.get("b").unwrap().offset(), text.find("null").unwrap());
    assert!(v.get("c").is_none() && items[0].get("a").is_none());
}

#[test]
fn escapes_and_non_ascii_text_parse() {
    let v = Json::parse(r#""café 😀 \b\f\n\r\t\/\\\"""#).unwrap();
    assert_eq!(v.as_str("s").unwrap(), "café 😀 \u{8}\u{c}\n\r\t/\\\"");
    assert_eq!(
        Json::parse("\"café 😀\"").unwrap().as_str("s").unwrap(),
        "café 😀"
    );
}

#[test]
fn hostile_documents_are_rejected_at_a_byte() {
    let cases: &[(&str, usize, &str)] = &[
        (
            r#"{"cmd":"health","cmd":"drain"}"#,
            16,
            "duplicate key \"cmd\"",
        ),
        (r#""\ud83d""#, 1, "lone surrogate"),
        (r#""\ud83dA""#, 1, "lone surrogate"),
        (r#""\ud83d\u0041""#, 1, "lone surrogate"),
        (r#""\ude00""#, 1, "lone surrogate"),
        (r#""\u12g4""#, 3, "hex digits"),
        (r#""\u+123""#, 3, "hex digits"),
        (r#""\x""#, 2, "unsupported escape"),
        ("\"abc", 4, "unterminated"),
        ("\"abc\\", 5, "dangling escape"),
        ("[1e999]", 1, "malformed number"),
        ("-", 0, "malformed number"),
        ("01", 0, "malformed number"),
        ("1.", 0, "malformed number"),
        ("1e", 0, "malformed number"),
        ("[1 2]", 3, "expected ',' or ']'"),
        ("{\"a\" 1}", 5, "expected ':'"),
        ("{1:2}", 1, "string key"),
        ("nul", 0, "expected \"null\""),
        ("", 0, "end of input"),
        ("1 2", 2, "trailing content"),
    ];
    for (text, offset, needle) in cases {
        let e = err(text);
        assert_eq!(e.offset, *offset, "{text} -> {e}");
        assert!(e.message.contains(needle), "{text} -> {e}");
        assert!(e.to_string().starts_with(&format!("byte {offset}: ")));
    }
}

#[test]
fn nesting_is_bounded_by_a_constant_not_the_stack() {
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&ok).is_ok());
    for open in ["[", "{\"a\":"] {
        let e = err(&open.repeat(1 << 20));
        assert_eq!(e.offset, open.len() * MAX_DEPTH, "{e}");
        assert!(e.message.contains("nesting deeper than 64"), "{e}");
    }
}

#[test]
fn integers_stay_exact_and_accessors_check_their_range() {
    let v = Json::parse("[0, 9007199254740993, 18446744073709551615, 5.0, 1e3]").unwrap();
    let ints: Vec<u64> = v
        .as_array("v")
        .unwrap()
        .iter()
        .map(|x| x.as_u64("x").unwrap())
        .collect();
    assert_eq!(ints, [0, (1 << 53) + 1, u64::MAX, 5, 1000]);
    let text = "[4294967296, -1, 1.5, 18446744073709551616, \"7\"]";
    let v = Json::parse(text).unwrap();
    let items = v.as_array("v").unwrap();
    assert_eq!(items[0].as_u64("n").unwrap(), 1 << 32);
    let e = items[0].as_u32("n").unwrap_err();
    assert_eq!(e.offset, 1);
    assert!(e.message.contains("n must be at most 4294967295"), "{e}");
    for (i, needle) in [(1, "got -1"), (2, "got 1.5"), (3, "got 1844674407370955")] {
        let e = items[i].as_usize("n").unwrap_err();
        assert_eq!(e.offset, items[i].offset());
        assert!(e.message.contains("non-negative integer"), "{e}");
        assert!(e.message.contains(needle), "{e}");
    }
    assert!(items[4].as_u64("n").is_err());
    assert_eq!(items[3].as_f64("n").unwrap(), 18446744073709551616.0);
    assert_eq!(items[0].as_f64("n").unwrap(), 4294967296.0);
}

#[test]
fn writer_output_is_what_the_reader_accepts() {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("s").str("a\"b\\c\nd\u{1}é😀");
    w.key("n").u64(u64::MAX);
    w.key("x").f64(-0.125);
    w.key("nan").f64(f64::NAN);
    w.key("inf").f64(f64::NEG_INFINITY);
    w.key("list").begin_array();
    w.bool(true).null();
    w.begin_object().end_object();
    w.begin_array().end_array();
    w.raw("{\"k\":1}");
    w.end_array().end_object();
    let text = w.finish();
    assert_eq!(
        text,
        "{\"s\":\"a\\\"b\\\\c\\nd\\u0001é😀\",\"n\":18446744073709551615,\"x\":-0.125,\
         \"nan\":null,\"inf\":null,\"list\":[true,null,{},[],{\"k\":1}]}"
    );
    let v = Json::parse(&text).unwrap();
    assert_eq!(
        v.get("s").unwrap().as_str("s").unwrap(),
        "a\"b\\c\nd\u{1}é😀"
    );
    assert_eq!(v.get("n").unwrap().as_u64("n").unwrap(), u64::MAX);
    assert_eq!(v.get("nan"), Some(&Json::Null(0)));
    // Re-emitting a parsed value reproduces it, whatever its spelling.
    for text in [
        r#"{"b": [1, 2.5, -3, 1e300, 1.8e19, 1e20, -0.0, "😀"], "a": {}}"#,
        "18446744073709551616",
        "0.1",
    ] {
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text} -> {v}");
    }
}
