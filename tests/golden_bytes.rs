//! Golden bytes for every `CCM2*` format.
//!
//! Each format encodes one fixed sample, and the test pins the `Fp128`
//! of the resulting bytes. A refactor of the codecs must leave every
//! pinned digest unchanged; a deliberate layout change must bump the
//! format's version constant and re-pin its digest here.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use ccm2_analysis::{encode_summary, CallSite, LockAcquire, UnitSummary};
use ccm2_codegen::ir::{CodeUnit, Instr, Shape};
use ccm2_fabric::{
    encode_frame, MembershipImage, MembershipStore, Message, ReplicaLog, ReplicaLogStore,
    WireOutcome, WireRequest,
};
use ccm2_incr::{
    encode_delta, encode_entry, ArtifactStore as _, CacheEntryData, CachedDiag, DeltaOp,
};
use ccm2_sema::builtins::Builtin;
use ccm2_sema::symtab::DkyStrategy;
use ccm2_serve::{CompileRequest, ExecChoice, SharedStore, SnapshotStore};
use ccm2_support::defs::DefLibrary;
use ccm2_support::hash::Fp128;
use ccm2_support::{Interner, Severity, Span};

fn fp(n: u64) -> Fp128 {
    Fp128 { hi: n, lo: !n }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccm2-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn incr_entry() -> Vec<u8> {
    let interner = Interner::new();
    let unit = CodeUnit {
        name: interner.intern("M.P"),
        level: 1,
        param_count: 2,
        frame: vec![
            Shape::Int,
            Shape::Array(Box::new(Shape::Record(vec![Shape::Int, Shape::Real])), 4),
        ],
        shapes: vec![Shape::Record(vec![Shape::Ptr])],
        code: vec![
            Instr::PushInt(-7),
            Instr::PushStr(interner.intern("hello")),
            Instr::Call {
                target: interner.intern("M.Q"),
                argc: 2,
                link_up: u32::MAX,
            },
            Instr::CallBuiltin {
                builtin: Builtin::WriteLn,
                argc: 0,
            },
            Instr::ReturnValue,
        ],
    };
    let entry = CacheEntryData {
        unit,
        diags: vec![CachedDiag {
            severity: Severity::Warning,
            rel_lo: 10,
            rel_hi: 14,
            message: "local variable `l9` is never used".into(),
        }],
        used: vec!["Lib0".into(), "Q".into()],
        findings: 1,
        summary: vec![0xCC, 0x4D],
    };
    encode_entry(&entry, &interner)
}

fn lock_summary() -> Vec<u8> {
    let summary = UnitSummary {
        unit: "M.P".into(),
        acquires: vec![LockAcquire {
            held: vec!["muA".into()],
            lock: "muB".into(),
            span: Span::new(110, 140),
        }],
        calls: vec![CallSite {
            held: vec!["muA".into(), "muB".into()],
            callee: "Q".into(),
            span: Span::new(120, 121),
        }],
        from_cache: false,
    };
    encode_summary(&summary, 100)
}

fn delta_ops() -> Vec<DeltaOp> {
    vec![
        DeltaOp::Insert {
            fp: fp(1),
            bytes: b"alpha".to_vec(),
        },
        DeltaOp::Evict { fp: fp(2) },
    ]
}

fn snapshot_image() -> Vec<u8> {
    let dir = tmp_dir("snap");
    let store = SharedStore::new(1024);
    store.store(fp(1), b"one");
    store.store(fp(2), b"two");
    store.load(fp(1));
    let path = SnapshotStore::new(&dir).unwrap().save(&store).unwrap();
    let bytes = std::fs::read(path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn replica_log_image() -> Vec<u8> {
    let dir = tmp_dir("rlog");
    let mut logs = HashMap::new();
    logs.insert(
        5,
        ReplicaLog {
            last_seq: 40,
            ops: delta_ops(),
            gaps: 2,
            gapped: true,
        },
    );
    logs.insert(
        2,
        ReplicaLog {
            last_seq: 11,
            ops: Vec::new(),
            gaps: 0,
            gapped: false,
        },
    );
    let path = ReplicaLogStore::new(&dir).unwrap().save(&logs).unwrap();
    let bytes = std::fs::read(path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn membership_image() -> Vec<u8> {
    let dir = tmp_dir("mbrs");
    let image = MembershipImage {
        epoch: 7,
        leader: 2,
        members: vec![4, 0, 1],
    };
    let path = MembershipStore::new(&dir).unwrap().save(&image).unwrap();
    let bytes = std::fs::read(path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn wire_frames() -> Vec<u8> {
    let mut defs = DefLibrary::new();
    defs.insert("IO", "DEFINITION MODULE IO; END IO.");
    let request = CompileRequest {
        client: 7,
        module: "Main".into(),
        source: "MODULE Main; BEGIN END Main.".into(),
        defs: Arc::new(defs),
        strategy: DkyStrategy::Skeptical,
        exec: ExecChoice::Threads(2),
        analyze: true,
        faults: None,
        task_deadline: Some(9),
        max_stream_retries: 3,
    };
    let messages = [
        Message::Compile(WireRequest::from_request(&request)),
        Message::Outcome(WireOutcome {
            request_fp: fp(3),
            ok: true,
            object: Some(b"image".to_vec()),
            diagnostics: vec!["warning: x".into()],
            wall_micros: 1234,
            streams: 5,
            degraded: false,
            stalled: true,
        }),
        Message::DeltaShip {
            from_shard: 2,
            batch: encode_delta(9, &delta_ops()),
            router: 0,
            epoch: 4,
        },
        Message::Image {
            delta_seq: 42,
            entries: vec![(fp(5), b"cold".to_vec()), (fp(7), b"warm".to_vec())],
            router: 1,
            epoch: 3,
        },
        Message::Pong {
            shard: 3,
            nonce: 0xC0FFEE,
            lease_epoch: 5,
            lease_router: 1,
            lease_age: 2,
        },
        Message::Reject {
            reason: "queue full".into(),
            retry_after_ms: 12,
        },
    ];
    messages.iter().flat_map(encode_frame).collect()
}

#[test]
fn every_format_encodes_its_golden_bytes() {
    let samples: [(&str, Vec<u8>); 7] = [
        ("CCM2INCR", incr_entry()),
        ("CCM2LOCK", lock_summary()),
        ("CCM2DELT", encode_delta(41, &delta_ops())),
        ("CCM2SNAP", snapshot_image()),
        ("CCM2RLOG", replica_log_image()),
        ("CCM2MBRS", membership_image()),
        ("CCM2WIRE", wire_frames()),
    ];
    let golden = [
        ("CCM2INCR", "ae7e30e45e3aaf4c8b2ed3eee2482464"),
        ("CCM2LOCK", "e812e59f81375e11ed2b6f7f322c0760"),
        ("CCM2DELT", "dc9913bb81ba29c87587c6590d9d6b5e"),
        ("CCM2SNAP", "5f9f927ba58f10a798df11fe436017d2"),
        ("CCM2RLOG", "7657eeb4011173d9e039478f20a86944"),
        ("CCM2MBRS", "b04144a01de22c1cc42c38b486dccb8d"),
        ("CCM2WIRE", "766e59495fd89a74c72084c788a013a2"),
    ];
    let got: Vec<(&str, String)> = samples
        .iter()
        .map(|(name, bytes)| {
            assert_eq!(&bytes[..8], name.as_bytes(), "{name} magic");
            (*name, Fp128::of(bytes).to_hex())
        })
        .collect();
    let want: Vec<(&str, String)> = golden.iter().map(|(n, h)| (*n, h.to_string())).collect();
    assert_eq!(got, want);
}
