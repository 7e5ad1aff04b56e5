//! Property: whatever `Json` prints, `Json::parse` reads back — equal as
//! a value when every number is finite, and in any case printing the
//! parsed value reproduces the text (non-finite numbers print as `null`).

use eatss_trace::json::Json;
use proptest::prelude::*;

/// Decodes a word stream into a nested value: each word picks a variant,
/// containers recurse until `depth` runs out or the words do.
fn decode(words: &mut std::slice::Iter<'_, u64>, depth: u32) -> Json {
    // Characters covering every `escape` arm plus multi-byte UTF-8.
    const CHARS: [char; 10] = [
        'a', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '✓',
    ];
    let Some(&w) = words.next() else {
        return Json::Null;
    };
    let len = (w >> 8) as usize % 4;
    match w % if depth == 0 { 6 } else { 8 } {
        0 => Json::Null,
        1 => Json::Bool(w & 0x100 != 0),
        2 => Json::Num((w >> 8) as i64 as f64 / 1024.0),
        3 => Json::Num(f64::from_bits(w)),
        4 => Json::Num([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][len]),
        5 => Json::Str(
            (0..len + (w >> 12) as usize % 5)
                .map(|i| CHARS[(w >> (16 + 4 * i)) as usize % CHARS.len()])
                .collect(),
        ),
        6 => Json::Arr((0..len).map(|_| decode(words, depth - 1)).collect()),
        _ => Json::Obj(
            (0..len)
                .map(|i| (format!("k{i}\"\n"), decode(words, depth - 1)))
                .collect(),
        ),
    }
}

fn all_finite(v: &Json) -> bool {
    match v {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(all_finite),
        Json::Obj(map) => map.values().all(all_finite),
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300 })]

    #[test]
    fn print_then_parse_is_a_fixpoint(words in prop::collection::vec(0u64..=u64::MAX, 1..120)) {
        let value = Json::Arr(vec![decode(&mut words.iter(), 4), decode(&mut words[1..].iter(), 2)]);
        let text = value.to_string();
        let back = Json::parse(&text);
        prop_assert!(back.is_ok(), "printed text does not parse: {:?}\n{}", back, text);
        let back = back.unwrap();
        prop_assert_eq!(back.to_string(), text);
        if all_finite(&value) {
            prop_assert_eq!(back, value);
        }
    }
}
