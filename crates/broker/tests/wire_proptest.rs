//! Property tests for the wire codec: every frame type survives a round
//! trip; truncation, garbage, and hostile length prefixes are rejected with
//! named errors (never a panic, never an allocation sized by the attacker).

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
        (0u64..1 << 32, st::event()).prop_map(|(seq, event)| Frame::Publish {
            seq,
            event: event.into(),
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
