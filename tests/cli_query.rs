//! `vaengine query` has one executor: human output and `--json` both
//! come from `inspire_serve::execute`, so a request the server refuses
//! is refused by both CLI modes, with the server's message, and a
//! request it answers gets the served body byte for byte.

use std::sync::Arc;
use std::time::Duration;
use visual_analytics::corpus::{FormatKind, Source};
use visual_analytics::engine::query::SearchIndex;
use visual_analytics::ingest::IngestDir;
use visual_analytics::prelude::*;
use visual_analytics::serve::request::split_target;
use visual_analytics::serve::{
    execute, http, load_live_state, ServeConfig, ServeRequest, ServeState, Server,
};

mod common;
use common::{build_snapshot, query_json, refusal, Scratch};

/// `engine.isnap` in `dir`: a 128 KiB PubMed corpus built at P=2.
fn engine_snapshot(dir: &Scratch) {
    let src = CorpusSpec::pubmed(128 * 1024, 37).generate();
    build_snapshot(&src, &dir.join("engine.isnap"), 2);
}

/// A one-worker server over `state` on an ephemeral port.
fn start(state: &Arc<ServeState>) -> Server {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    Server::start(Arc::clone(state), &cfg).unwrap()
}

/// The message `ServeRequest::parse` refuses `route?params` with.
fn parse_refusal(route: &str, params: &[(&str, &str)]) -> String {
    let params: Vec<(String, String)> = params
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    inspire_serve::ServeRequest::parse(route, &params)
        .expect_err("the server refuses this request")
        .message
}

#[test]
fn refused_queries_fail_alike_in_both_output_modes() {
    let dir = Scratch::new("cli-query");
    engine_snapshot(&dir);
    let refused_at_execute = [
        (
            &["--cluster", "999"][..],
            "unknown cluster 999 (0..".to_string(),
        ),
        (
            &["--similar", "999999"],
            "unknown document 999999 (0..".to_string(),
        ),
    ];
    // Flags the server's validator refuses: the CLI must fail with
    // exactly its message.
    let refused_at_parse = [
        (
            &["--search", "protein cell", "--top", "0"][..],
            parse_refusal("/search", &[("q", "protein cell"), ("top", "0")]),
        ),
        (
            &["--rect", "nan,0,1,1"],
            parse_refusal(
                "/rect",
                &[("x0", "nan"), ("y0", "0"), ("x1", "1"), ("y1", "1")],
            ),
        ),
        (
            &["--term", "protein", "--top", "abc"],
            parse_refusal("/term", &[("t", "protein"), ("top", "abc")]),
        ),
        (&["--search", ""], parse_refusal("/search", &[("q", "")])),
    ];
    for (args, message) in refused_at_execute {
        let failed = refusal(&dir, args);
        assert!(failed.contains(&message), "{args:?}: {failed:?}");
    }
    for (args, message) in refused_at_parse {
        assert_eq!(
            refusal(&dir, args),
            format!("query failed: {message}"),
            "{args:?}"
        );
    }
}

/// A record of words no generated corpus holds: none of them can be a
/// major term, so its document's signature is null.
fn offbeat(name: &str, words: &str) -> Source {
    Source {
        name: name.into(),
        data: format!("TI  - {words}\nAB  - {words}\n\n").into_bytes(),
        format: FormatKind::Medline,
    }
}

/// ROADMAP 5(c)'s null-signature case end to end, on an ingest
/// directory: `/similar?doc=` on a base document and on a live document
/// whose signatures are null is answered 200, similar to nothing, with
/// no candidate counted, and the CLI prints the served body.
#[test]
fn null_signature_documents_are_similar_to_nothing() {
    let dir = Scratch::new("cli-null");
    let mut set = CorpusSpec::pubmed(128 * 1024, 37).generate();
    set.sources.push(offbeat("offbeat-base", "qqxv zzwk jjqy"));
    let base = dir.join("base.isnap");
    build_snapshot(&set, &base, 2);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base)).unwrap();
    ing.append(offbeat("offbeat-live", "vvqk xxjz")).unwrap();
    drop(ing);

    let state = Arc::new(load_live_state(&live).unwrap());
    let null = |doc: u32| state.doc_signature(doc).unwrap().iter().all(|&x| x == 0.0);
    let base_docs = state.meta.total_docs;
    let base_doc = (0..base_docs)
        .find(|&d| null(d))
        .expect("a null base signature");
    let live_doc = base_docs;
    assert!(null(live_doc), "the live document's signature is not null");

    let server = start(&state);
    for doc in [base_doc, live_doc] {
        let target = format!("/similar?doc={doc}");
        let served = http::get(server.local_addr(), &target, Duration::from_secs(10)).unwrap();
        assert_eq!(served.status, 200, "{target}: {}", served.body);
        assert!(
            served.body.ends_with("\"candidates\":0,\"hits\":[]}\n"),
            "{target}: {}",
            served.body
        );
        let cli = query_json(
            &dir,
            &["--ingest-dir", "live", "--similar", &doc.to_string()],
        );
        assert_eq!(cli, served.body, "{target}");
    }
    server.shutdown();
}

/// Every number that follows `"key":` in a JSON body, in order.
fn numbers(body: &str, key: &str) -> Vec<u64> {
    let tag = format!("\"{key}\":");
    (body.split(tag.as_str()).skip(1))
        .map(|rest| {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            rest[..digits].parse().unwrap()
        })
        .collect()
}

/// `/cluster` and `/rect` on an ingest directory list and count live
/// documents only: after base document 0 and a live document are
/// deleted, neither is in the answer, `size` and `matches` count what
/// is listed, and the CLI prints the served body.
#[test]
fn cluster_and_rect_leave_out_deleted_documents() {
    let dir = Scratch::new("cli-tomb");
    let mut set = CorpusSpec::pubmed(128 * 1024, 37).generate();
    let batch = set.sources.pop().unwrap();
    let base = dir.join("base.isnap");
    build_snapshot(&set, &base, 2);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base)).unwrap();
    ing.append(batch).unwrap();
    let deleted = [0, ing.manifest().base_docs];
    ing.delete(deleted.to_vec()).unwrap();
    drop(ing);

    let state = Arc::new(load_live_state(&live).unwrap());
    let before = ServeState::load(&base).unwrap();
    let cluster = state.assignments.as_ref().unwrap()[0].to_string();
    let server = start(&state);
    let whole = "-1e300,-1e300,1e300,1e300";
    let cases = [
        (
            format!("/cluster?c={cluster}&top=10000"),
            "size",
            "--cluster",
            cluster.as_str(),
        ),
        (
            "/rect?x0=-1e300&y0=-1e300&x1=1e300&y1=1e300&top=10000".to_string(),
            "matches",
            "--rect",
            whole,
        ),
    ];
    for (target, count, flag, value) in cases {
        let served = http::get(server.local_addr(), &target, Duration::from_secs(10)).unwrap();
        assert_eq!(served.status, 200, "{target}: {}", served.body);

        // The base's answer, less the deleted documents.
        let (route, params) = split_target(&target);
        let old = execute(&before, &ServeRequest::parse(route, &params).unwrap()).unwrap();
        assert_eq!(numbers(&old, "doc")[0], 0, "{target}: {old}");
        let want: Vec<u64> = (numbers(&old, "doc").into_iter())
            .filter(|&d| !deleted.contains(&(d as u32)))
            .collect();
        assert_eq!(numbers(&served.body, "doc"), want, "{target}");
        assert_eq!(numbers(&served.body, count), [want.len() as u64]);

        let cli = query_json(
            &dir,
            &["--ingest-dir", "live", flag, value, "--top", "10000"],
        );
        assert_eq!(cli, served.body, "{target}");
    }
    server.shutdown();
}

/// ROADMAP 5(c)'s fully deleted term end to end, on an ingest
/// directory: once every base and live document holding a term is
/// deleted, `/term` counts no posting and no document, `/query`
/// matches nothing, `/search` finds nothing although df still counts
/// the deleted documents (LSM semantics), and an `OR` with a live term
/// matches exactly the live term's documents. Every body is the same
/// before and after compaction, and the CLI prints the served body.
#[test]
fn a_term_whose_every_document_is_deleted_matches_nothing() {
    let dir = Scratch::new("cli-gone");
    let mut set = CorpusSpec::pubmed(128 * 1024, 37).generate();
    let batches = set.sources.split_off(set.sources.len() - 3);
    let base = dir.join("base.isnap");
    build_snapshot(&set, &base, 2);
    let live = dir.join("live");
    let mut ing = IngestDir::create(&live, Some(&base)).unwrap();
    for b in batches {
        ing.append(b).unwrap();
    }
    let base_docs = ing.manifest().base_docs;

    // A rare term held by base and live documents, and a term held by
    // none of them, in base and live documents too.
    let state = load_live_state(&live).unwrap();
    let docs_of = |t: &str| -> Vec<u32> {
        let id = state.term_id(t).unwrap();
        let mut docs: Vec<u32> = state.postings_of(id).iter().map(|p| p.doc).collect();
        docs.dedup();
        docs
    };
    let words: Vec<&str> = (state.terms.iter())
        .filter(|t| t.bytes().all(|b| b.is_ascii_lowercase()))
        .filter(|t| !["and", "or", "not"].contains(t))
        .collect();
    let gone = (words.iter().copied())
        .find(|&t| {
            let docs = docs_of(t);
            docs.len() <= 6 && docs[0] < base_docs && docs[docs.len() - 1] >= base_docs
        })
        .expect("a rare term in base and live documents")
        .to_string();
    let deleted = docs_of(&gone);
    let kept = (words.iter().copied())
        .find(|&t| {
            let docs = docs_of(t);
            docs[0] < base_docs
                && docs[docs.len() - 1] >= base_docs
                && docs.iter().all(|d| !deleted.contains(d))
        })
        .expect("a term of other base and live documents")
        .to_string();
    let df = state.df(state.term_id(&gone).unwrap());
    assert_eq!(df as usize, deleted.len());
    drop(state);
    ing.delete(deleted.clone()).unwrap();
    drop(ing);

    let either = format!("{gone} OR {kept}");
    let cases = [
        ("/term", "t", "--term", gone.as_str()),
        ("/query", "q", "--query", gone.as_str()),
        ("/search", "q", "--search", gone.as_str()),
        ("/query", "q", "--query", either.as_str()),
        ("/query", "q", "--query", kept.as_str()),
    ];
    let mut passes: Vec<Vec<String>> = Vec::new();
    for compacted in [false, true] {
        if compacted {
            IngestDir::open(&live).unwrap().compact().unwrap().unwrap();
        }
        let state = Arc::new(load_live_state(&live).unwrap());
        assert_eq!(
            state.df(state.term_id(&gone).unwrap()),
            df,
            "df counts the deleted"
        );
        let server = start(&state);
        let mut bodies = Vec::new();
        for (route, key, flag, value) in cases {
            let params = [(key.to_string(), value.to_string())];
            let req = ServeRequest::parse(route, &params).unwrap();
            let served = execute(&state, &req).unwrap();
            let target = format!("{route}?{key}={}", value.replace(' ', "%20"));
            let got = http::get(server.local_addr(), &target, Duration::from_secs(10)).unwrap();
            assert_eq!((got.status, got.body.as_str()), (200, served.as_str()));
            let cli = query_json(&dir, &["--ingest-dir", "live", flag, value]);
            assert_eq!(cli, served, "{target}");
            bodies.push(served);
        }
        server.shutdown();
        let tail = |body: &str| body.split_once("\"matches\":").unwrap().1.to_string();
        assert!(
            bodies[0].contains("\"postings\":0,\"documents\":0,\"hits\":[]"),
            "{}",
            bodies[0]
        );
        assert!(
            bodies[1].ends_with("\"matches\":0,\"docs\":[]}\n"),
            "{}",
            bodies[1]
        );
        assert!(bodies[2].ends_with("\"hits\":[]}\n"), "{}", bodies[2]);
        assert_eq!(
            tail(&bodies[3]),
            tail(&bodies[4]),
            "the OR is the live term"
        );
        assert_ne!(numbers(&bodies[4], "matches"), [0]);
        passes.push(bodies);
    }
    assert_eq!(passes[0], passes[1], "compaction changed a body");
}

/// Text that tokenizes alike but reads differently is a different
/// request: `/search` and `/similar?text=` bodies echo the raw text, so
/// the result cache must not answer one spelling with the other's body.
/// Each upper-case spelling is served (and cached) first; then the
/// lower-case, comma-separated spelling's served body must equal
/// `execute` and the CLI's `--json` body.
#[test]
fn text_that_tokenizes_alike_is_not_served_from_its_twin() {
    let dir = Scratch::new("cli-twins");
    engine_snapshot(&dir);
    let state = Arc::new(ServeState::load(&dir.join("engine.isnap")).unwrap());
    // A cluster label is made of major terms, so its words find
    // documents by search and land in signature space.
    let label = &state.cluster_labels[0];
    let (a, b) = (label[0].as_str(), label[1].as_str());
    let (upper, lower) = (
        format!("{} {b}", a.to_ascii_uppercase()),
        format!("{a},{b}"),
    );
    let server = start(&state);
    for (route, key, flag) in [
        ("/search", "q", "--search"),
        ("/similar", "text", "--similar-text"),
    ] {
        for text in [&upper, &lower] {
            let params = [(key.to_string(), text.clone())];
            let want = execute(&state, &ServeRequest::parse(route, &params).unwrap()).unwrap();
            assert!(
                want.contains("\"hits\":[{\"doc\":"),
                "{route} {text:?}: {want}"
            );
            let target = format!("{route}?{key}={}", text.replace(' ', "+"));
            let got = http::get(server.local_addr(), &target, Duration::from_secs(10)).unwrap();
            assert_eq!(
                (got.status, got.body.as_str()),
                (200, want.as_str()),
                "{target}"
            );
            let cli = query_json(&dir, &["--snapshot", "engine.isnap", flag, text]);
            assert_eq!(cli, want, "{target}");
        }
    }
    server.shutdown();
}
