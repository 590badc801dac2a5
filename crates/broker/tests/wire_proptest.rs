//! Property tests for the wire codec: every frame type survives a round
//! trip; truncation, garbage, and hostile length prefixes are rejected with
//! named errors (never a panic, never an allocation sized by the attacker).
//! The decoder reads a frame in one pass with no tree in between, so it is
//! also held against inputs this repository's encoder never writes: mutated
//! bytes, members in any order, arbitrary whitespace, pathological nesting,
//! numbers at and past the edges of their fields, escaped strings. The
//! `FrameReader`, which decodes a run of `Deliver`s of one event once, is held
//! against `decode` itself: whatever the stream, it reads exactly the frames
//! and the error that `decode` reads frame by frame.
//!
//! Every property draws a fixed number of cases from a generator seeded by
//! the test's name (the vendored proptest's only mode), so each run — CI's
//! `test` job included — checks the same inputs.

use std::collections::VecDeque;

use dps_broker::wire::{
    decode, encode, write_deliver, EventBody, Frame, FrameReader, PubRef, WireError, MAX_FRAME,
};
use dps_content::strategies as st;
use dps_content::{Event, SharedEvent, Value};
use proptest::prelude::*;

/// Strings over the characters JSON has to escape or carry verbatim: quotes,
/// backslashes, control characters, multi-byte and non-BMP unicode.
fn hostile_string() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = [
        'a', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', '\u{2028}', '😀',
    ];
    proptest::collection::vec(proptest::sample::select(&ALPHABET[..]), 0..=8)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Events whose names and string values come from [`hostile_string`], beside
/// the content-model's own values.
fn hostile_event() -> impl Strategy<Value = Event> {
    let value = prop_oneof![st::value(), hostile_string().prop_map(Value::from)];
    proptest::collection::vec((hostile_string(), value), 0..=4).prop_map(Event::new)
}

/// A strategy producing every [`Frame`] variant, with realistic payloads from
/// the content-model strategies.
fn frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (0u32..3, 0u64..1 << 48, (0u32..2).prop_map(|b| b == 1)).prop_map(|(version, s, some)| {
            Frame::Hello {
                version,
                session: some.then_some(s),
            }
        }),
        (0u64..1 << 32, 0u64..1 << 16, st::filter(), 0u32..1 << 16).prop_map(
            |(seq, sub, filter, credit)| Frame::Subscribe {
                seq,
                sub,
                filter: filter.into(),
                credit,
            }
        ),
        (0u64..1 << 32, 0u64..1 << 16).prop_map(|(seq, sub)| Frame::Unsubscribe { seq, sub }),
        (0u64..1 << 32, prop_oneof![st::event(), hostile_event()]).prop_map(|(seq, event)| {
            Frame::Publish {
                seq,
                event: event.into(),
            }
        }),
        (
            0u64..1 << 16,
            0u64..1 << 32,
            0u32..1 << 20,
            st::full_event()
        )
            .prop_map(|(sub, publisher, pub_seq, event)| Frame::Deliver {
                sub,
                publisher,
                pub_seq,
                event: event.into(),
            }),
        (
            0u64..1 << 32,
            (0u32..2).prop_map(|b| b == 1),
            0u64..1 << 32,
            0u32..1 << 20,
            st::short_string(),
            (0u32..2).prop_map(|b| b == 1)
        )
            .prop_map(|(seq, has_id, node, pseq, err, has_err)| Frame::Ack {
                seq,
                pub_id: has_id.then_some(PubRef { node, seq: pseq }),
                error: has_err.then_some(err),
            }),
        (0u64..1 << 16, 0u32..1 << 16).prop_map(|(sub, more)| Frame::Credit { sub, more }),
        st::short_string().prop_map(|reason| Frame::Close { reason }),
    ]
    .boxed()
}

/// `body` behind the length prefix that fits it.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(body);
    bytes
}

/// The decode error for a well-framed `body` that is no [`Frame`].
fn decode_error(body: &str) -> String {
    match decode(&framed(body.as_bytes())) {
        Err(WireError::Decode(why)) => why,
        other => panic!("expected a decode error for {body}, got {other:?}"),
    }
}

/// The frame a well-framed `body` decodes to.
fn decoded(body: &str) -> Frame {
    let bytes = framed(body.as_bytes());
    let (frame, used) = decode(&bytes)
        .unwrap_or_else(|e| panic!("{body}: {e}"))
        .expect("complete");
    assert_eq!(used, bytes.len());
    frame
}

/// Writes `v` as a peer with other habits would: object members in the order
/// `picks` shuffle them into and any JSON whitespace between tokens.
fn scrambled(v: &serde_json::Value, picks: &mut impl Iterator<Item = u32>, out: &mut String) {
    let ws = |out: &mut String, picks: &mut dyn Iterator<Item = u32>| {
        out.push_str(["", " ", "\n", "\t \r\n"][picks.next().unwrap() as usize % 4]);
    };
    ws(out, picks);
    match v {
        serde_json::Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                scrambled(item, picks, out);
            }
            ws(out, picks);
            out.push(']');
        }
        serde_json::Value::Object(members) => {
            let mut members: Vec<_> = members.iter().collect();
            for i in (1..members.len()).rev() {
                members.swap(i, picks.next().unwrap() as usize % (i + 1));
            }
            out.push('{');
            for (i, (key, value)) in members.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(out, picks);
                serde_json::Value::String(key.clone()).render_compact(out);
                ws(out, picks);
                out.push(':');
                scrambled(value, picks, out);
            }
            ws(out, picks);
            out.push('}');
        }
        leaf => leaf.render_compact(out),
    }
    ws(out, picks);
}

proptest! {
    /// Encode → decode is the identity, and consumes exactly the frame.
    #[test]
    fn round_trip_every_frame_type(f in frame()) {
        let bytes = encode(&f).expect("well-formed frames encode");
        let (back, used) = decode(&bytes).expect("own encoding decodes").expect("complete");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, f);
    }

    /// The shared-body writer emits exactly the bytes `encode` does for the
    /// same `Deliver`, appended after whatever the buffer already held.
    #[test]
    fn deliver_writer_matches_encode(
        sub in 0u64..u64::MAX,
        publisher in 0u64..1 << 32,
        pub_seq in 0u32..u32::MAX,
        event in prop_oneof![st::full_event(), hostile_event()],
        held in 0usize..9,
    ) {
        let event = SharedEvent::new(event);
        let frame = Frame::Deliver { sub, publisher, pub_seq, event: event.clone() };
        let mut out: VecDeque<u8> = vec![0xAA; held].into();
        write_deliver(&mut out, sub, publisher, pub_seq, &EventBody::encode(&event))
            .expect("small frames fit");
        let bytes: Vec<u8> = out.into_iter().skip(held).collect();
        prop_assert_eq!(&bytes, &encode(&frame).unwrap());
        let (back, used) = decode(&bytes).unwrap().expect("complete");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// Any strict prefix of a frame is "incomplete", never an error or panic;
    /// EOF at that point is a named truncation.
    #[test]
    fn truncation_is_incomplete_then_named_at_eof(f in frame(), frac in 0u32..1000) {
        let bytes = encode(&f).unwrap();
        let cut = (bytes.len() - 1) * frac as usize / 1000;
        prop_assert_eq!(decode(&bytes[..cut]).unwrap(), None);
        let mut r = FrameReader::new();
        r.feed(&bytes[..cut]);
        prop_assert_eq!(r.next_frame().unwrap(), None);
        if cut > 0 {
            prop_assert!(matches!(r.finish(), Err(WireError::Truncated { .. })));
        }
    }

    /// A length prefix past the cap is rejected no matter what follows —
    /// before any allocation of that size could happen.
    #[test]
    fn oversized_prefix_is_rejected(over in 1u32..u32::MAX - MAX_FRAME, junk in 0u64..u64::MAX) {
        let len = MAX_FRAME + over;
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend_from_slice(&junk.to_be_bytes());
        prop_assert_eq!(
            decode(&buf).unwrap_err(),
            WireError::FrameTooLarge { len, max: MAX_FRAME }
        );
    }

    /// A well-framed body that is not a Frame decodes to a named error, and
    /// the error message is loud about why.
    #[test]
    fn garbage_body_is_a_decode_error(s in st::short_string(), pad in 0u64..u64::MAX) {
        let body = format!("{s}{pad}");
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body.as_bytes());
        prop_assert!(matches!(decode(&buf), Err(WireError::Decode(_))));
    }

    /// A peer may write the members of any object in any order and put any
    /// JSON whitespace between tokens: it is the same frame.
    #[test]
    fn member_order_and_whitespace_are_free(
        f in frame(),
        picks in proptest::collection::vec(0u32..u32::MAX, 1..=64),
    ) {
        let mut body = String::new();
        scrambled(&serde::Serialize::to_json(&f), &mut picks.iter().copied().cycle(), &mut body);
        prop_assert_eq!(decoded(&body), f);
    }

    /// Attribute order on the wire is free as well: the event decoded from a
    /// shuffled list is the event, and `get` finds every attribute in it.
    #[test]
    fn shuffled_attributes_decode_to_the_same_event(
        event in prop_oneof![st::full_event(), hostile_event()],
        picks in proptest::collection::vec(0u32..u32::MAX, 8),
    ) {
        let serde_json::Value::Object(members) = serde::Serialize::to_json(&event) else {
            panic!("an event is an object");
        };
        let serde_json::Value::Array(mut attrs) = members[0].1.clone() else {
            panic!("holding a list of attributes");
        };
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, picks[i % picks.len()] as usize % (i + 1));
        }
        let mut body = String::from(r#"{"Publish":{"seq":1,"event":{"attrs":"#);
        serde_json::Value::Array(attrs.clone()).render_compact(&mut body);
        body.push_str("}}}");
        let Frame::Publish { event: back, .. } = decoded(&body) else {
            panic!("a Publish");
        };
        prop_assert_eq!(&*back, &event);
        for (name, value) in event.iter() {
            prop_assert_eq!(back.get(name), Some(value));
        }
        // The same list with one attribute a second time is no event.
        if let Some(first) = attrs.first().cloned() {
            attrs.push(first);
            let mut body = String::from(r#"{"Publish":{"seq":1,"event":{"attrs":"#);
            serde_json::Value::Array(attrs).render_compact(&mut body);
            body.push_str("}}}");
            let why = decode_error(&body);
            prop_assert!(why.contains("appears more than once"), "{}", why);
        }
    }

    /// Reassembly is chunking-independent: any chunk size yields the same
    /// frame sequence as one contiguous feed.
    #[test]
    fn reader_is_chunking_independent(a in frame(), b in frame(), c in frame(), chunk in 1usize..9) {
        let frames = vec![a, b, c];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f).unwrap());
        }
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            r.feed(piece);
            while let Some(f) = r.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        r.finish().unwrap();
    }
}

/// The encoder refuses to emit a frame whose body would bust the cap — the
/// sender finds out, not the receiver.
#[test]
fn encoder_enforces_the_cap_too() {
    let reason = "x".repeat(MAX_FRAME as usize + 1);
    match encode(&Frame::Close { reason }) {
        Err(WireError::FrameTooLarge { max, .. }) => assert_eq!(max, MAX_FRAME),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

/// The `Deliver` writer checks the cap before it appends anything: a refused
/// frame leaves no half frame behind, and the largest frame that fits does.
#[test]
fn deliver_writer_enforces_the_cap_and_leaves_the_buffer_untouched() {
    let with_payload = |n: usize| {
        let event = SharedEvent::new(Event::new([("k", Value::from("x".repeat(n).as_str()))]));
        EventBody::encode(&event)
    };
    // Body bytes of a frame around an empty payload, to aim at the cap exactly.
    let mut probe = VecDeque::new();
    write_deliver(&mut probe, 7, 3, 1, &with_payload(0)).unwrap();
    let room = MAX_FRAME as usize - (probe.len() - 4);

    let held: VecDeque<u8> = b"held".to_vec().into();
    let mut out = held.clone();
    match write_deliver(&mut out, 7, 3, 1, &with_payload(room + 1)) {
        Err(WireError::FrameTooLarge { len, max }) => {
            assert_eq!((len, max), (MAX_FRAME + 1, MAX_FRAME));
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert_eq!(out, held, "a refused frame appends nothing");

    write_deliver(&mut out, 7, 3, 1, &with_payload(room)).expect("exactly at the cap");
    let bytes: Vec<u8> = out.into_iter().skip(held.len()).collect();
    assert_eq!(bytes.len(), 4 + MAX_FRAME as usize);
    assert!(matches!(
        decode(&bytes),
        Ok(Some((Frame::Deliver { sub: 7, .. }, _)))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// Mutation fuzz: flip, insert and delete bytes of valid frames of every
    /// type. The decoder refuses the result or reads a frame that is a fixed
    /// point of encode → decode; it never panics, whatever the bytes.
    #[test]
    fn mutated_frames_are_refused_or_read_as_some_frame(
        f in frame(),
        edits in proptest::collection::vec((0u32..3, 0usize..1 << 16, 0u32..256), 1..=3),
    ) {
        let mut body = encode(&f).unwrap()[4..].to_vec();
        for (kind, at, byte) in edits {
            let byte = byte as u8;
            match kind {
                0 if !body.is_empty() => {
                    let at = at % body.len();
                    body[at] = if body[at] == byte { !byte } else { byte };
                }
                1 if !body.is_empty() => drop(body.remove(at % body.len())),
                _ => body.insert(at % (body.len() + 1), byte),
            }
        }
        let bytes = framed(&body);
        match decode(&bytes) {
            Err(WireError::Decode(_)) => {}
            Ok(Some((frame, used))) => {
                prop_assert_eq!(used, bytes.len());
                let again = encode(&frame).expect("a decoded frame encodes");
                prop_assert_eq!(decode(&again).unwrap(), Some((frame, again.len())));
            }
            other => panic!("a complete frame under the cap gave {other:?}"),
        }
    }
}

/// A body of nothing but openers, as large as a frame may be, is refused
/// without following it down: where a value of another kind was expected the
/// reader checks that what stands there is at least JSON, and its depth
/// guard ends that at 128 levels — on a thread with a small stack the error
/// comes back instead of an overflow.
#[test]
fn pathological_nesting_is_refused_by_the_depth_guard_not_the_stack() {
    const IN_A_STRING_VALUE: &str = r#"{"Publish":{"seq":1,"event":{"attrs":[["k",{"Str":"#;
    for (prefix, opener, why) in [
        ("", "[", "nested too deeply"),
        // An object is what a frame is, so this one is read — one level.
        ("", r#"{"a":"#, r#"unknown variant "a" of Frame"#),
        (IN_A_STRING_VALUE, "[", "nested too deeply"),
        (IN_A_STRING_VALUE, r#"{"a":"#, "nested too deeply"),
    ] {
        let mut body = format!(
            "{prefix}{}",
            opener.repeat(MAX_FRAME as usize / opener.len())
        );
        body.truncate(MAX_FRAME as usize);
        let got = std::thread::Builder::new()
            .stack_size(512 << 10)
            .spawn(move || decode_error(&body))
            .unwrap()
            .join()
            .expect("no stack overflow, no panic");
        assert!(got.contains(why), "{got}");
    }
}

/// Numbers at the edges of their fields decode exactly; numbers past them,
/// and numbers of the wrong sort, are errors naming the type and the field.
#[test]
fn numeric_edges_are_exact_or_named_errors() {
    assert_eq!(
        decoded(r#"{"Credit":{"sub":18446744073709551615,"more":4294967295}}"#),
        Frame::Credit {
            sub: u64::MAX,
            more: u32::MAX
        }
    );
    let int = |literal: &str| {
        decoded(&format!(
            r#"{{"Publish":{{"seq":0,"event":{{"attrs":[["k",{{"Int":{literal}}}]]}}}}}}"#
        ))
    };
    let with = |v: i64| Frame::Publish {
        seq: 0,
        event: Event::new([("k", Value::from(v))]).into(),
    };
    assert_eq!(int("-9223372036854775808"), with(i64::MIN));
    assert_eq!(int("9223372036854775807"), with(i64::MAX));
    assert_eq!(int("-0"), with(0));
    for (body, why) in [
        (
            r#"{"Credit":{"sub":18446744073709551616,"more":1}}"#,
            "Frame::Credit.sub: expected u64, got the number `18446744073709551616`",
        ),
        (
            r#"{"Credit":{"sub":1,"more":4294967296}}"#,
            "Frame::Credit.more: expected u32, got the number `4294967296`",
        ),
        (
            r#"{"Subscribe":{"seq":1,"sub":2,"filter":{"predicates":[]},"credit":4294967296}}"#,
            "Frame::Subscribe.credit: expected u32, got the number `4294967296`",
        ),
        (
            r#"{"Deliver":{"sub":1,"publisher":2,"pub_seq":4294967296,"event":{"attrs":[]}}}"#,
            "Frame::Deliver.pub_seq: expected u32, got the number `4294967296`",
        ),
        (
            r#"{"Deliver":{"sub":-0,"publisher":2,"pub_seq":3,"event":{"attrs":[]}}}"#,
            "Frame::Deliver.sub: expected u64, got the number `-0`",
        ),
        (
            r#"{"Unsubscribe":{"seq":1.0,"sub":2}}"#,
            "Frame::Unsubscribe.seq: expected u64, got the number `1.0`",
        ),
        (
            r#"{"Unsubscribe":{"seq":1,"sub":1e3}}"#,
            "Frame::Unsubscribe.sub: expected u64, got the number `1e3`",
        ),
        (
            r#"{"Publish":{"seq":0,"event":{"attrs":[["k",{"Int":9223372036854775808}]]}}}"#,
            "Frame::Publish.event: Event.attrs: [0]: tuple[1]: Value::Int: \
             expected i64, got the number `9223372036854775808`",
        ),
        (
            r#"{"Hello":{"version":01,"session":null}}"#,
            "leading zeros are not allowed",
        ),
    ] {
        let got = decode_error(body);
        assert!(got.contains(why), "{body}: {got}");
    }
}

/// Escapes, surrogate pairs included, mean the characters they name —
/// in attribute names as in string values — and come back out unchanged.
#[test]
fn escaped_strings_mean_their_characters() {
    let body = r#"{"Publish":{"seq":3,"event":{"attrs":[["\ud83d\ude00\u00e9\"\\\/\b\f\n\r\t\u0000",{"Str":"a\ud834\udd1eb\u2028"}],["plain",{"Str":"é😀"}]]}}}"#;
    let frame = Frame::Publish {
        seq: 3,
        event: Event::new([
            (
                "😀é\"\\/\u{8}\u{c}\n\r\t\u{0}",
                Value::from("a\u{1d11e}b\u{2028}"),
            ),
            ("plain", Value::from("é😀")),
        ])
        .into(),
    };
    assert_eq!(decoded(body), frame);
    let bytes = encode(&frame).unwrap();
    assert_eq!(decode(&bytes).unwrap(), Some((frame, bytes.len())));
    for (body, why) in [
        (
            r#"{"Close":{"reason":"\ud83d"}}"#,
            "unpaired surrogate escape",
        ),
        (
            r#"{"Close":{"reason":"\ud83d\u0041"}}"#,
            "invalid low surrogate",
        ),
        (r#"{"Close":{"reason":"\x"}}"#, "invalid escape"),
        (
            "{\"Close\":{\"reason\":\"a\u{1}b\"}}",
            "raw control character",
        ),
    ] {
        let got = decode_error(body);
        assert!(got.contains(why), "{body}: {got}");
    }
}

/// Protocol v1 peers built before bodies went compact pretty-print them. One
/// frame of each type, exactly as such a peer emits it, still decodes.
#[test]
fn pretty_printed_v1_frames_still_decode() {
    let event = || {
        SharedEvent::new(Event::new([
            ("price", Value::from(150)),
            ("sym", Value::from("a\"b")),
        ]))
    };
    let filter = "price > 100".parse::<dps_content::Filter>().unwrap();
    let frames = [
        (
            Frame::Hello {
                version: 1,
                session: Some(4),
            },
            r#"{
  "Hello": {
    "version": 1,
    "session": 4
  }
}"#,
        ),
        (
            Frame::Subscribe {
                seq: 1,
                sub: 2,
                filter: filter.into(),
                credit: 8,
            },
            r#"{
  "Subscribe": {
    "seq": 1,
    "sub": 2,
    "filter": {
      "predicates": [
        {
          "name": "price",
          "op": "Gt",
          "constant": {
            "Int": 100
          }
        }
      ]
    },
    "credit": 8
  }
}"#,
        ),
        (
            Frame::Unsubscribe { seq: 9, sub: 2 },
            r#"{
  "Unsubscribe": {
    "seq": 9,
    "sub": 2
  }
}"#,
        ),
        (
            Frame::Publish {
                seq: 6,
                event: event(),
            },
            r#"{
  "Publish": {
    "seq": 6,
    "event": {
      "attrs": [
        [
          "price",
          {
            "Int": 150
          }
        ],
        [
          "sym",
          {
            "Str": "a\"b"
          }
        ]
      ]
    }
  }
}"#,
        ),
        (
            Frame::Deliver {
                sub: 2,
                publisher: 12,
                pub_seq: 3,
                event: event(),
            },
            r#"{
  "Deliver": {
    "sub": 2,
    "publisher": 12,
    "pub_seq": 3,
    "event": {
      "attrs": [
        [
          "price",
          {
            "Int": 150
          }
        ],
        [
          "sym",
          {
            "Str": "a\"b"
          }
        ]
      ]
    }
  }
}"#,
        ),
        (
            Frame::Ack {
                seq: 5,
                pub_id: Some(PubRef { node: 12, seq: 3 }),
                error: None,
            },
            r#"{
  "Ack": {
    "seq": 5,
    "pub_id": {
      "node": 12,
      "seq": 3
    },
    "error": null
  }
}"#,
        ),
        (
            Frame::Credit { sub: 2, more: 16 },
            r#"{
  "Credit": {
    "sub": 2,
    "more": 16
  }
}"#,
        ),
        (
            Frame::Close {
                reason: "bye\tnow".into(),
            },
            r#"{
  "Close": {
    "reason": "bye\tnow"
  }
}"#,
        ),
    ];
    for (frame, pretty) in frames {
        assert_eq!(
            serde_json::to_string_pretty(&frame).unwrap(),
            pretty,
            "the literal is what a pretty-printing v1 peer sends"
        );
        let mut bytes = (pretty.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(pretty.as_bytes());
        let (back, used) = decode(&bytes).unwrap().expect("complete");
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
    }
}

/// Numbers at the edges of a `u64` field, and anywhere between.
fn edge_u64() -> impl Strategy<Value = u64> {
    const EDGES: [u64; 7] = [0, 1, 9, 10, 4_294_967_295, 4_294_967_296, u64::MAX];
    prop_oneof![
        proptest::sample::select(&EDGES[..]),
        0u64..u64::MAX,
        0u64..1 << 10
    ]
}

/// Numbers at the edges of a `u32` field, and anywhere between.
fn edge_u32() -> impl Strategy<Value = u32> {
    const EDGES: [u32; 6] = [0, 1, 9, 10, u32::MAX - 1, u32::MAX];
    prop_oneof![
        proptest::sample::select(&EDGES[..]),
        0u32..u32::MAX,
        0u32..1 << 10
    ]
}

/// Number spellings the `Deliver` writer never uses: past the edges of a
/// field (`u32::MAX + 1` is past only `pub_seq`'s), leading zeros, signs,
/// fractions, exponents, nothing at all.
const ODD_NUMBERS: [&str; 12] = [
    "18446744073709551616",
    "99999999999999999999",
    "4294967296",
    "00",
    "01",
    "007",
    "-0",
    "-1",
    "1.0",
    "1e3",
    "",
    " 1",
];

/// One `Deliver` of a stream: the event it carries (an index into the
/// stream's few events, so publications repeat and interleave), its numbers,
/// how it is spelled, and a draw the spelling may use.
type Item = (usize, u64, u64, u32, u32, u32);

/// The body of `item`'s frame. Most are spelled as the broker writes them;
/// the rest pretty-printed, with members reordered and whitespace added, with
/// a number spelled oddly, with whitespace or one byte changed inside the
/// event, or as some other frame altogether.
fn spelled(events: &[SharedEvent], others: &[Frame], item: Item) -> Vec<u8> {
    let (e, sub, publisher, pub_seq, how, pick) = item;
    let event = events[e % events.len()].clone();
    let json = EventBody::encode(&event);
    let mut out = VecDeque::new();
    write_deliver(&mut out, sub, publisher, pub_seq, &json).unwrap();
    let mut canonical: Vec<u8> = out.into_iter().skip(4).collect();
    // Where the event member's bytes start: it ends right before the `}}`.
    let event_at = canonical.len() - 2 - json.as_str().len();
    let in_event = event_at + pick as usize % json.as_str().len();
    let frame = Frame::Deliver {
        sub,
        publisher,
        pub_seq,
        event,
    };
    match how {
        0..=6 => canonical,
        7 => serde_json::to_string_pretty(&frame).unwrap().into_bytes(),
        8 => {
            let mut body = String::new();
            let mut picks = (0..8).map(|i| pick.rotate_left(4 * i)).cycle();
            scrambled(&serde::Serialize::to_json(&frame), &mut picks, &mut body);
            body.into_bytes()
        }
        9 => {
            let mut numbers = [sub.to_string(), publisher.to_string(), pub_seq.to_string()];
            numbers[pick as usize % 3] = ODD_NUMBERS[pick as usize / 3 % ODD_NUMBERS.len()].into();
            let [sub, publisher, pub_seq] = numbers;
            format!(
                r#"{{"Deliver":{{"sub":{sub},"publisher":{publisher},"pub_seq":{pub_seq},"event":{}}}}}"#,
                json.as_str()
            )
            .into_bytes()
        }
        10 => {
            canonical.insert(in_event, [b' ', b'\n', b'\t'][(pick >> 16) as usize % 3]);
            canonical
        }
        11 | 12 => {
            let byte = (pick >> 24) as u8;
            canonical[in_event] = if canonical[in_event] == byte {
                !byte
            } else {
                byte
            };
            canonical
        }
        _ => encode(&others[pick as usize % others.len()]).unwrap()[4..].to_vec(),
    }
}

/// What `decode` reads from `stream`, frame by frame, up to its first error.
fn decoded_one_by_one(stream: &[u8]) -> Vec<Result<Frame, WireError>> {
    let mut out = Vec::new();
    let mut at = 0;
    loop {
        match decode(&stream[at..]) {
            Ok(Some((frame, used))) => {
                out.push(Ok(frame));
                at += used;
            }
            Ok(None) => return out,
            Err(e) => {
                out.push(Err(e));
                return out;
            }
        }
    }
}

/// What one `FrameReader` reads from `stream` fed in pieces of `sizes`
/// (cycled), up to its first error.
fn read_in_pieces(stream: &[u8], sizes: &[usize]) -> Vec<Result<Frame, WireError>> {
    let mut r = FrameReader::new();
    let mut out = Vec::new();
    let mut at = 0;
    for size in sizes.iter().cycle() {
        if at == stream.len() {
            break;
        }
        let end = (at + size).min(stream.len());
        r.feed(&stream[at..end]);
        at = end;
        loop {
            match r.next_frame() {
                Ok(Some(frame)) => out.push(Ok(frame)),
                Ok(None) => break,
                Err(e) => {
                    out.push(Err(e));
                    return out;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The reader decodes a publication's event once and hands later
    /// `Deliver`s of it the same event, but it never reads anything `decode`
    /// would not: over streams of repeated and interleaved publications, in
    /// every spelling, and fed one byte or a few at a time, it yields exactly
    /// the frames and the error `decode` yields frame by frame.
    #[test]
    fn reader_reads_exactly_what_decode_reads(
        events in proptest::collection::vec(prop_oneof![st::full_event(), hostile_event()], 1..=3),
        others in proptest::collection::vec(frame(), 1..=2),
        items in proptest::collection::vec(
            (0usize..8, edge_u64(), edge_u64(), edge_u32(), 0u32..16, 0u32..u32::MAX),
            1..=24,
        ),
        sizes in proptest::collection::vec(1usize..160, 1..=8),
    ) {
        let events: Vec<SharedEvent> = events.into_iter().map(SharedEvent::new).collect();
        let mut stream = Vec::new();
        for item in items {
            stream.extend(framed(&spelled(&events, &others, item)));
        }
        let want = decoded_one_by_one(&stream);
        prop_assert_eq!(&read_in_pieces(&stream, &[1]), &want);
        prop_assert_eq!(&read_in_pieces(&stream, &sizes), &want);
    }
}
