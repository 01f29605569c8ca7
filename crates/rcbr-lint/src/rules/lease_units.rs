//! `lease-units` and `measurement-window`: superstep counts must be
//! named, never raw literals. One scan, two keyword lists.
//!
//! Every duration in the runtime is measured in supersteps, and the
//! convention is that the count lives in a field, const, or config knob
//! whose name ends in `_supersteps` — so the unit is visible at every
//! use site and a cadence change (e.g. more phases per round) has one
//! place to audit. A bare `now + 48` next to lease/timeout/deadline
//! state hard-codes a count whose unit is invisible and silently wrong
//! the moment the superstep cadence changes. The live admission
//! subsystem schedules its measurement windows on the same clock, and
//! its determinism argument depends on every shard rolling at the same
//! instants: a bare `next_roll + 64` next to window/decay state can
//! silently desynchronize the rolls.
//!
//! The check is window-based: tokens are split into statement-ish
//! windows at `;`, `,`, `{`, `}`. A window trips when it contains
//!
//! 1. an identifier naming the rule's state — duration state (`lease`,
//!    `timeout`, `deadline`, `backoff`, `expir…`, `until`, `grace`,
//!    `ttl`) for `lease-units`, estimator cadence state (`window`,
//!    `decay`, `ewma`, `horizon`) for `measurement-window` — and
//! 2. an integer literal in a *value* position — directly bound
//!    (after `=` or `:`) or combined arithmetically / compared
//!    (adjacent to `+`, `-`, `<`, `>`), and
//! 3. no sanctioned name: an identifier ending in `_supersteps` (or
//!    exactly `supersteps`), or one listed in the rule's
//!    `allow_idents` — the audited pre-existing duration names whose
//!    doc comments pin the unit.
//!
//! Literals in plain argument position (`fetch_add(1, …)`) are counter
//! bumps, not durations, and stay exempt.

use super::Ctx;
use crate::lexer::{TokKind, Token};

/// What one of the two rules looks for: the identifier fragments that
/// mark its state, and how its diagnostic names that state and the fix.
struct Scan {
    keys: &'static [&'static str],
    state: &'static str,
    so_that: &'static str,
}

/// `expir` covers `expire`, `expired`, `expires_at`, `expiry`.
const DURATIONS: Scan = Scan {
    keys: &[
        "lease", "timeout", "deadline", "backoff", "expir", "until", "grace", "ttl",
    ],
    state: "duration state",
    so_that: "so the unit is named (audited legacy names go in lint.toml allow_idents)",
};

/// Deliberately excludes `estimat…`: estimator *identifiers* are
/// everywhere, but only their window/decay schedules carry superstep
/// units.
const CADENCES: Scan = Scan {
    keys: &["window", "decay", "ewma", "horizon"],
    state: "estimator cadence state",
    so_that: "so every shard rolls the measurement window on the same named schedule",
};

/// Does this (lowercased) identifier declare its superstep unit?
fn sanctioned_name(lower: &str) -> bool {
    lower.ends_with("_supersteps") || lower == "supersteps"
}

/// Is the integer at `idx` used as a value — bound or in arithmetic —
/// rather than sitting in plain argument position?
fn value_position(win: &[Token], idx: usize) -> bool {
    let prev_binds = idx > 0
        && matches!(win[idx - 1].kind, TokKind::Punct)
        && matches!(
            win[idx - 1].text.as_bytes().first(),
            Some(b'=') | Some(b':') | Some(b'+') | Some(b'-') | Some(b'<') | Some(b'>')
        );
    let next_combines = win
        .get(idx + 1)
        .is_some_and(|t| t.is_punct('+') || t.is_punct('-') || t.is_punct('<') || t.is_punct('>'));
    prev_binds || next_combines
}

pub(super) fn check_durations(ctx: &mut Ctx<'_>) {
    check(ctx, &DURATIONS);
}

pub(super) fn check_cadences(ctx: &mut Ctx<'_>) {
    check(ctx, &CADENCES);
}

fn check(ctx: &mut Ctx<'_>, scan: &Scan) {
    let allow: Vec<String> = ctx
        .cfg_list("allow_idents")
        .iter()
        .map(|a| a.to_ascii_lowercase())
        .collect();
    let toks = &ctx.file.tokens;
    let mut start = 0usize;
    for i in 0..=toks.len() {
        let at_boundary = i == toks.len()
            || toks[i].is_punct(';')
            || toks[i].is_punct(',')
            || toks[i].is_punct('{')
            || toks[i].is_punct('}');
        if !at_boundary {
            continue;
        }
        scan_window(ctx, scan, &toks[start..i], &allow);
        start = i + 1;
    }
}

fn scan_window(ctx: &mut Ctx<'_>, scan: &Scan, win: &[Token], allow: &[String]) {
    let mut keyed: Option<String> = None;
    let mut sanctioned = false;
    let mut literal: Option<&Token> = None;
    for (i, t) in win.iter().enumerate() {
        match t.kind {
            TokKind::Ident => {
                let lower = t.text.to_ascii_lowercase();
                if sanctioned_name(&lower) || allow.contains(&lower) {
                    sanctioned = true;
                } else if keyed.is_none() && scan.keys.iter().any(|k| lower.contains(k)) {
                    keyed = Some(t.text.clone());
                }
            }
            TokKind::Int if literal.is_none() && value_position(win, i) => {
                literal = Some(t);
            }
            _ => {}
        }
    }
    if sanctioned {
        return;
    }
    if let (Some(name), Some(lit)) = (keyed, literal) {
        ctx.emit(
            lit.line,
            format!(
                "raw integer near {} `{name}` hard-codes a superstep count; \
                 route it through a *_supersteps field or const {}",
                scan.state, scan.so_that
            ),
        );
    }
}
