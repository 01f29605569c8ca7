//! `barrier-discipline`: atomic loads only inside `snapshot*` helpers.
//!
//! This encodes the PR 2 engine-drain gotcha verbatim: a shared-counter
//! read that drives a driver's break/continue must happen in the window
//! between barriers where no shard can write. Reading `completed` after
//! the last drain barrier races with the next round's phase-A timeout
//! writes — one shard sees the target reached and leaves, the others
//! block on a barrier that will never fill.
//!
//! Enforcement: in the scoped files (the drivers `engine.rs` and
//! `sequential.rs`, then `kernel.rs`, `core.rs`, `audit.rs`), every
//! `.load(` on an atomic must be inside a function whose name starts
//! with a sanctioned prefix (default `snapshot`, configurable via
//! `allow_fn_prefixes`). The helpers'
//! doc-comments state which barrier window makes the read safe, so the
//! whole audit surface is the handful of `snapshot_*` call sites.

use super::Ctx;
use crate::lexer::{enclosing_fn, fn_spans};

pub(super) fn check(ctx: &mut Ctx<'_>) {
    let mut prefixes = ctx.cfg_list("allow_fn_prefixes");
    if prefixes.is_empty() {
        prefixes.push("snapshot".to_string());
    }
    let toks = &ctx.file.tokens;
    let spans = fn_spans(toks);
    for i in 0..toks.len() {
        if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("load"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let fn_name = enclosing_fn(&spans, i).map(|s| s.name.clone());
            let sanctioned = fn_name
                .as_deref()
                .is_some_and(|n| prefixes.iter().any(|p| n.starts_with(p.as_str())));
            if !sanctioned {
                let where_ = fn_name.unwrap_or_else(|| "<top level>".to_string());
                ctx.emit(
                    toks[i].line,
                    format!(
                        "atomic load in `{where_}` — cross-shard counter reads must go \
                         through a snapshot_* helper taken between barriers (the PR 2 \
                         drain-loop deadlock: a read racing the next round's writes \
                         desynchronizes the shards' break decisions)"
                    ),
                );
            }
        }
    }
}
