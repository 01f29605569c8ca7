//! `salt-disjointness`: the declared fault-plane salt families are
//! pairwise disjoint and anchor the registry consts.
//!
//! A job's salt feeds the fault hash and breaks same-seq ordering ties,
//! so two traffic families sharing a salt share fault coin flips — the
//! PR 5 shard-identity regression. `salt-registry` already forces every
//! construction site through the named consts; this rule closes the
//! remaining gap: the consts themselves drifting into collision, or a
//! new salt being minted without a declared, audited family.
//!
//! `lint.toml [rule.salt-disjointness]` declares the families:
//!
//! ```toml
//! families = ["SALT_PRIMARY=0", "SALT_GHOST=1", "SALT_TEARDOWN_BASE=3.."]
//! ```
//!
//! `N..M` is a half-open range, `N..` is open-ended (teardown walks mint
//! `base + k`), `N` alone is the singleton. Checks, on the registry
//! file(s) this rule is scoped to:
//!
//! 1. declared families are pairwise disjoint (config self-check);
//! 2. every declared family is anchored by a `const <NAME>` whose value
//!    is the family's start;
//! 3. every `SALT_`-prefixed const in the registry belongs to a declared
//!    family — no unaudited salt can appear.

use super::Ctx;
use crate::lexer::TokKind;

/// Salts are a `u8`; open-ended families run to this bound.
const SALT_SPACE_END: u64 = 256;

struct Family {
    name: String,
    start: u64,
    end: u64,
}

pub(super) fn check(ctx: &mut Ctx<'_>) {
    let raw = ctx.cfg_list("families");
    if raw.is_empty() {
        return; // nothing declared, nothing to prove
    }
    let mut families: Vec<Family> = Vec::new();
    for entry in &raw {
        let Some((name, range)) = entry.split_once('=') else {
            ctx.emit(1, format!("salt-disjointness: bad family entry {entry:?}"));
            return;
        };
        let range = range.trim();
        let (start, end) = if let Some((a, b)) = range.split_once("..") {
            let Ok(a) = a.trim().parse::<u64>() else {
                ctx.emit(1, format!("salt-disjointness: bad family entry {entry:?}"));
                return;
            };
            let b = if b.trim().is_empty() {
                SALT_SPACE_END
            } else {
                match b.trim().parse::<u64>() {
                    Ok(b) => b,
                    Err(_) => {
                        ctx.emit(1, format!("salt-disjointness: bad family entry {entry:?}"));
                        return;
                    }
                }
            };
            (a, b)
        } else {
            match range.parse::<u64>() {
                Ok(a) => (a, a + 1),
                Err(_) => {
                    ctx.emit(1, format!("salt-disjointness: bad family entry {entry:?}"));
                    return;
                }
            }
        };
        families.push(Family {
            name: name.trim().to_string(),
            start,
            end,
        });
    }

    // 1. Pairwise disjointness (and no duplicate names).
    for i in 0..families.len() {
        for j in i + 1..families.len() {
            let (a, b) = (&families[i], &families[j]);
            if a.name == b.name {
                ctx.emit(
                    1,
                    format!("salt-disjointness: family `{}` declared twice", a.name),
                );
            }
            if a.start < b.end && b.start < a.end {
                ctx.emit(
                    1,
                    format!(
                        "salt-disjointness: families `{}` ({}..{}) and `{}` ({}..{}) overlap — \
                         their traffic would share fault coin flips and ordering ties",
                        a.name, a.start, a.end, b.name, b.start, b.end
                    ),
                );
            }
        }
    }

    // The registry's salt consts.
    let prefix = ctx
        .cfg_str("const_prefix")
        .unwrap_or_else(|| "SALT_".into());
    let toks = &ctx.file.tokens;
    let mut consts: Vec<(String, u64, u32)> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("const") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !name_tok.text.starts_with(&prefix) {
            continue;
        }
        for j in i + 2..(i + 9).min(toks.len()) {
            if toks[j].is_punct('=') {
                if let Some(v) = toks.get(j + 1).filter(|t| t.kind == TokKind::Int) {
                    consts.push((name_tok.text.clone(), v.int, name_tok.line));
                }
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
        }
    }

    // 2. Every family is anchored by its const.
    for fam in &families {
        match consts.iter().find(|(n, _, _)| n == &fam.name) {
            None => ctx.emit(
                1,
                format!(
                    "salt-disjointness: declared family `{}` has no `const {}` in the \
                     registry — the declaration is dead and the salt space unaudited",
                    fam.name, fam.name
                ),
            ),
            Some((_, v, line)) if *v != fam.start => ctx.emit(
                *line,
                format!(
                    "salt-disjointness: `{}` is {v} but its declared family starts at {} — \
                     the registry and lint.toml disagree about the salt space",
                    fam.name, fam.start
                ),
            ),
            _ => {}
        }
    }

    // 3. Every registry const belongs to a declared family.
    for (name, value, line) in &consts {
        if !families.iter().any(|f| &f.name == name) {
            ctx.emit(
                *line,
                format!(
                    "salt-disjointness: salt const `{name}` = {value} is not declared in \
                     [rule.salt-disjointness] families — declare its family so its \
                     disjointness from every other salt is checked"
                ),
            );
        }
    }
}
