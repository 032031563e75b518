"""Fingerprints for incremental checking.

The unit of caching is one translation unit checked against one program
interface. A unit's result can depend only on (the paper's modular-
checking contract: a function body is checked only against interface
information):

* the unit's **preprocessed token stream** (kind, spelling, and location
  of every token — locations matter because messages carry them),
* the active :class:`~repro.flags.registry.Flags` configuration,
* the **stdlib prelude** version (its text, defines, and system headers)
  and any loaded interface libraries,
* the merged symbol-table **entries its analysis reads** — the
  signatures, globals and enum constants it looks up by name,
* the engine version, bumped whenever checker semantics change.

Results are keyed two ways. The *exact key* (:func:`check_fingerprint`)
folds in the **program digest** over every unit's interface digest, so
an unchanged program is one read per unit. The *slot key*
(:func:`slot_key`) leaves the program digest out: it holds the last
result for a token stream together with the names its check read and
one digest of those entries' merged values (see :mod:`.entries`).
When the exact key misses after an interface edit, a slot whose read
entries still digest the same is a hit — so an edit re-checks only the
units that read a changed entry.

Two helper layers make warm runs cheap: a *source key* over the raw
unit text and command-line defines memoizes the token digest so an
unchanged unit is never re-preprocessed, and per-unit interface digests
let the program digest be recomputed without reparsing unchanged units.
"""

from __future__ import annotations

import hashlib

from ..flags.registry import FLAG_REGISTRY, Flags
from ..frontend.tokens import Token, TokenKind
from ..stdlib.specs import PRELUDE_DEFINES, PRELUDE_TEXT, SYSTEM_HEADERS

#: Bump when checker or serialization semantics change: every cached
#: result becomes unreachable and the cache rebuilds itself.
#: v2: per-unit interface digests moved from the reflective object-graph
#: walk to the token-based digest (same invalidation contract, ~20x
#: cheaper); old caches self-wipe with a visible rebuild note.
#: v3: dependency-validated result slots (:func:`slot_key`) next to the
#: exact keys; failed units' interface digests use the entry digests.
#: v4: unit memos carry the unit's function count, so ``-stats`` counts
#: the functions of units answered from the cache.
ENGINE_VERSION = 4


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def text_digest(text: str) -> str:
    return _sha(text)


def flags_digest(flags: Flags) -> str:
    """Digest of the *effective* flag configuration.

    Uses resolved values for every registered flag so that, e.g.,
    ``Flags()`` and ``Flags({"null": True})`` fingerprint identically.
    """
    parts = [f"{name}={int(flags.enabled(name))}" for name in sorted(FLAG_REGISTRY)]
    return _sha("flags", *parts)


def defines_digest(defines: dict[str, str]) -> str:
    parts = [f"{name}={value}" for name, value in sorted(defines.items())]
    return _sha("defines", *parts)


_PRELUDE_DIGEST: str | None = None


def prelude_digest() -> str:
    """Version digest of the annotated standard library the checker assumes.

    The inputs are process-lifetime constants, so the digest is computed
    once and memoized (it participates in every program digest).
    """
    global _PRELUDE_DIGEST
    if _PRELUDE_DIGEST is None:
        headers = [
            f"{name}:{text}" for name, text in sorted(SYSTEM_HEADERS.items())
        ]
        _PRELUDE_DIGEST = _sha(
            f"engine-v{ENGINE_VERSION}",
            PRELUDE_TEXT,
            defines_digest(dict(PRELUDE_DEFINES)),
            *headers,
        )
    return _PRELUDE_DIGEST


def token_stream_digest(tokens: list[Token]) -> str:
    """Digest of a preprocessed token stream, locations included.

    Locations are part of the fingerprint on purpose: two token streams
    that differ only in line numbers produce messages that render
    differently, so they must not share a cache entry.
    """
    digest = hashlib.sha256()
    update = digest.update
    for tok in tokens:
        # coords() reads (filename, line, column) without materializing a
        # Location object; the digest bytes are unchanged, so cache
        # entries written before the lazy-token rewrite stay valid.
        filename, line, column = tok.coords()
        update(
            f"{tok.kind.name}\x00{tok.value}\x00"
            f"{filename}\x00{line}\x00{column}\x01".encode(
                "utf-8", "surrogatepass"
            )
        )
    return digest.hexdigest()


def interface_token_digest(tokens: list[Token]) -> str:
    """Digest of a unit's *interface* as seen in its token stream.

    This is the hot-path replacement for :func:`interface_digest` (the
    reflective object-graph walk over the symbol-table slice, which
    dominated cold-run cost). The modular-checking contract says other
    units may depend only on this unit's declared signatures, types,
    annotations, and enum constants — all of which are spelled in the
    token stream *outside* function bodies. So the digest covers every
    token except the brace-balanced body of a function definition (a
    ``{`` whose previous significant token closes a parameter list or is
    a globals/modifies clause), and control comments (suppressions are
    strictly unit-local).

    Locations are included for the covered tokens, mirroring the old
    digest (which hashed declaration ``Location`` fields): messages
    emitted while checking *other* units may cite this unit's
    declaration sites, so a moved declaration must change the digest. A
    same-line body edit leaves every covered token — and therefore the
    digest — unchanged, which is what keeps body edits re-checking only
    their own unit.

    The skip rule is conservative: any ``{`` it cannot prove starts a
    function body (initializer lists, struct/union/enum bodies, K&R
    definitions) is included, which can only over-invalidate, never
    miss an interface change.
    """
    digest = hashlib.sha256()
    update = digest.update
    punct = TokenKind.PUNCT
    control = TokenKind.CONTROL
    annotation = TokenKind.ANNOTATION
    n = len(tokens)
    i = 0
    prev_is_body_opener = False
    while i < n:
        tok = tokens[i]
        kind = tok.kind
        if kind is control:
            i += 1
            continue
        value = tok.value
        if value == "{" and kind is punct and prev_is_body_opener:
            depth = 1
            i += 1
            while i < n and depth:
                t = tokens[i]
                if t.kind is punct:
                    if t.value == "{":
                        depth += 1
                    elif t.value == "}":
                        depth -= 1
                i += 1
            prev_is_body_opener = False
            continue
        filename, line, column = tok.coords()
        update(
            f"{kind.name}\x00{value}\x00"
            f"{filename}\x00{line}\x00{column}\x01".encode(
                "utf-8", "surrogatepass"
            )
        )
        # A '{' directly after ')' opens a function body; so does one
        # after a trailing /*@globals ...@*/ or /*@modifies ...@*/
        # clause (which sits between the parameter list and the body).
        if kind is punct:
            prev_is_body_opener = value == ")"
        elif kind is annotation:
            first_word = value.split(None, 1)[:1]
            prev_is_body_opener = first_word in (
                ["globals"], ["modifies"], ["uses"]
            )
        else:
            prev_is_body_opener = False
        i += 1
    return digest.hexdigest()


def unit_digests(tokens: list[Token]) -> tuple[str, str]:
    """``(token_stream_digest, interface_token_digest)`` in one pass.

    The cold path needs both digests for every parsed unit; fusing the
    loops halves the dominant per-token cost (coords + formatting), and
    the per-token byte sequences are identical to the standalone
    functions, so cache keys are unchanged.
    """
    full = hashlib.sha256()
    iface = hashlib.sha256()
    full_update = full.update
    iface_update = iface.update
    punct = TokenKind.PUNCT
    control = TokenKind.CONTROL
    annotation = TokenKind.ANNOTATION
    n = len(tokens)
    i = 0
    body_depth = 0  # >0 while inside a skippable function body
    prev_is_body_opener = False
    while i < n:
        tok = tokens[i]
        kind = tok.kind
        value = tok.value
        part = tok._fp
        if part is None:
            filename, line, column = tok.coords()
            part = (
                f"{kind.name}\x00{value}\x00"
                f"{filename}\x00{line}\x00{column}\x01".encode(
                    "utf-8", "surrogatepass"
                )
            )
            # Safe to memoize: kind/value/coords are immutable once the
            # token exists, and header tokens are shared between units.
            tok._fp = part
        full_update(part)
        if body_depth:
            if kind is punct:
                if value == "{":
                    body_depth += 1
                elif value == "}":
                    body_depth -= 1
            i += 1
            continue
        if kind is control:
            i += 1
            continue
        if value == "{" and kind is punct and prev_is_body_opener:
            body_depth = 1
            prev_is_body_opener = False
            i += 1
            continue
        iface_update(part)
        if kind is punct:
            prev_is_body_opener = value == ")"
        elif kind is annotation:
            first_word = value.split(None, 1)[:1]
            prev_is_body_opener = first_word in (
                ["globals"], ["modifies"], ["uses"]
            )
        else:
            prev_is_body_opener = False
        i += 1
    return full.hexdigest(), iface.hexdigest()


def source_key(name: str, text: str, defines: dict[str, str]) -> str:
    """Fast-path key over the *raw* unit text (ccache-style direct mode).

    Maps to a memo holding the token digest, interface digest, and the
    include closure observed the last time the unit was preprocessed; the
    memo is valid only while every recorded include's text is unchanged.
    """
    return _sha("unit", name, text, defines_digest(defines))


def memo_variant_key(key: str, closure: list[tuple[str, str]]) -> str:
    """Key of the memo variant for source key *key* under one version of
    its include closure: every ``(include name, content digest)`` pair.

    The base memo under *key* remembers only the last closure seen; the
    variant keeps each version reachable, so a header that goes back to
    an earlier version finds that version's memo instead of reparsing.
    """
    return _sha("variant", key, *(f"{n}\x00{d}" for n, d in closure))


def program_digest(
    interface_digests: list[str], library_digests: list[str]
) -> str:
    """Digest of the merged interface a unit is checked against."""
    return _sha(
        "program",
        prelude_digest(),
        *interface_digests,
        "libraries",
        *library_digests,
    )


def check_fingerprint(
    token_digest: str,
    flags: Flags,
    prog_digest: str,
    flags_fp: str | None = None,
) -> str:
    """The cache key for one unit's check result.

    Callers fingerprinting many units against one configuration pass the
    precomputed ``flags_fp`` so the flag digest is hashed once per run.
    """
    if flags_fp is None:
        flags_fp = flags_digest(flags)
    return _sha("check", token_digest, flags_fp, prog_digest)


def slot_key(
    token_digest: str, flags_fp: str, library_digests: list[str]
) -> str:
    """The key of a unit's dependency-validated result slot.

    Everything :func:`check_fingerprint` covers except the program
    digest: the slot holds the last result for this token stream under
    these flags, prelude and libraries, plus what that check read from
    the merged symbol table (see :class:`.entries.EntryDigests`).
    """
    return _sha(
        "slot", token_digest, flags_fp, prelude_digest(), "libraries",
        *library_digests,
    )


def interface_digest(symtab, enum_consts: dict[str, int]) -> str:
    """Digest of one unit's exported interface slice, from the entry
    digests of :mod:`.entries` (the token-based digest covers parsed
    units; this one covers a unit the frontend gave up on)."""
    from .entries import interface_entries_digest

    return interface_entries_digest(symtab, enum_consts)
