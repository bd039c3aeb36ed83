//! Property tests for the JSON validator and parser: neither may panic
//! on any input, and both accept and reject exactly the same documents.

use mobigrid_telemetry::json::{parse, validate};
use proptest::prelude::*;

/// JSON tokens and fragments of tokens, so random strings reach deep into
/// the grammar instead of failing on their first byte.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\"k\":", "\"s\"", "\\u00e9", "\\u", "\\x", "0", "-",
    "12", "1.5", "1e", "e+", ".", "true", "fals", "null", " ", "\n", "é", "✓", "\u{1}",
];

fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..TOKENS.len(), 0..512)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

fn arbitrary_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..512).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect()
    })
}

/// Runs of one bracket kind at a time, so nesting regularly passes the
/// parser's depth cap as well as staying below it.
fn bracket_runs() -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..4, 1usize..100), 0..64).prop_map(|runs| {
        runs.into_iter()
            .map(|(kind, len)| ["[", "]", "{\"a\":", "}"][kind].repeat(len))
            .collect()
    })
}

/// Neither entry point panics, and they agree on what is valid JSON.
fn check(doc: &str) {
    let validated = validate(doc);
    let parsed = parse(doc);
    assert_eq!(
        validated.is_ok(),
        parsed.is_ok(),
        "{doc:?}: {validated:?} vs {parsed:?}"
    );
}

proptest! {
    #[test]
    fn json_never_panics_on_arbitrary_strings(doc in arbitrary_string()) {
        check(&doc);
    }

    #[test]
    fn json_never_panics_on_token_soup(doc in token_soup()) {
        check(&doc);
    }

    #[test]
    fn json_never_panics_on_random_bracket_sequences(
        brackets in prop::collection::vec(0usize..4, 0..4096),
    ) {
        let doc: String = brackets.into_iter().map(|i| ['[', ']', '{', '}'][i]).collect();
        check(&doc);
    }

    #[test]
    fn json_never_panics_on_bracket_runs(doc in bracket_runs()) {
        check(&doc);
    }
}
