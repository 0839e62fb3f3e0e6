"""Lexer and recursive-descent parser for the spec grammar (Figure 3).

The grammar, from the paper::

    spec         ::= id [ constraints ]
    constraints  ::= { '@' version-list | '+' variant | '-' variant
                     | '~' variant | '%' compiler | '=' architecture }
                     [ dep-list ]
    dep-list     ::= { '^' spec }
    version-list ::= version [ { ',' version } ]
    version      ::= id | id ':' | ':' id | id ':' id
    compiler     ::= id [ version-list ]
    variant      ::= id
    architecture ::= id
    id           ::= [A-Za-z0-9_][A-Za-z0-9_.-]*

Extensions faithful to the original implementation:

* a spec may be *anonymous* (no leading id) so that ``when='%gcc@5:'`` and
  ``when='@2.4'`` predicates parse;
* ``@:`` parses as the universal version list;
* several whitespace-separated specs may appear in one string
  (:func:`parse_specs` returns them all — ``spack install`` takes a list);
* every ``^dep`` clause attaches to the *root* spec: dependencies are
  unique by name within a DAG (§3.2.3), so nesting is never needed.
"""

import re

from repro.spec import errors as err
from repro.spec.spec import CompilerSpec, Spec
from repro.version import Version, VersionList, VersionRange

__all__ = ["parse_specs", "SpecLexer", "Token"]

#: token kinds
ID, AT, COLON, COMMA, ON, OFF, PCT, EQ, DEP = (
    "ID", "AT", "COLON", "COMMA", "ON", "OFF", "PCT", "EQ", "DEP",
)

_PUNCT = {
    "@": AT,
    ":": COLON,
    ",": COMMA,
    "+": ON,
    "-": OFF,
    "~": OFF,
    "%": PCT,
    "=": EQ,
    "^": DEP,
}

_ID_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")
_WS_RE = re.compile(r"\s+")


class Token:
    """One lexical token: kind, text, and position (for error carets)."""

    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


class SpecLexer:
    """Tokenize a spec expression.

    ``-`` is an OFF token only at a token boundary; *inside* an id it is
    part of the name (``py-numpy`` is one id, ``mpileaks -debug`` is an id
    plus a disabled variant).  The id regex cannot *start* with ``-``, so
    this falls out of maximal-munch naturally.
    """

    def tokenize(self, text):
        tokens = []
        pos = 0
        n = len(text)
        while pos < n:
            ws = _WS_RE.match(text, pos)
            if ws:
                pos = ws.end()
                continue
            m = _ID_RE.match(text, pos)
            if m:
                tokens.append(Token(ID, m.group(0), pos))
                pos = m.end()
                continue
            ch = text[pos]
            kind = _PUNCT.get(ch)
            if kind is None:
                raise err.SpecParseError(
                    "Unexpected character %r in spec" % ch, text, pos
                )
            tokens.append(Token(kind, ch, pos))
            pos += 1
        return tokens


class SpecParser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text):
        self.text = text
        self.tokens = SpecLexer().tokenize(text)
        self.pos = 0

    # -- stream helpers -----------------------------------------------------
    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise err.SpecParseError("Unexpected end of spec", self.text, len(self.text))
        self.pos += 1
        return tok

    def accept(self, kind):
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind, what):
        tok = self.accept(kind)
        if tok is None:
            bad = self.peek()
            raise err.SpecParseError(
                "Expected %s" % what,
                self.text,
                bad.pos if bad else len(self.text),
            )
        return tok

    # -- grammar rules -------------------------------------------------------
    def parse(self, into=None):
        """Parse the whole stream: one or more specs, the first into
        ``into`` when given."""
        specs = []
        while self.peek() is not None:
            specs.append(self.parse_spec(into if not specs else None))
        return specs

    def parse_spec(self, spec=None):
        if spec is None:
            spec = Spec()
        tok = self.peek()
        if tok is not None and tok.kind == ID:
            self.next()
            spec.name = tok.value
        elif tok is None or tok.kind == DEP:
            raise err.SpecParseError(
                "Spec must begin with a package name or constraint",
                self.text,
                tok.pos if tok else len(self.text),
            )
        self.parse_constraints(spec)
        while self.accept(DEP):
            dep = Spec()
            dep.name = self.expect(ID, "a dependency name after '^'").value
            self.parse_constraints(dep, in_dep=True)
            try:
                spec._add_dependency(dep)
            except err.DuplicateDependencyError as e:
                raise err.SpecParseError(str(e), self.text, 0)
        return spec

    def parse_constraints(self, spec, in_dep=False):
        """Apply ``@ + - ~ % =`` clauses to ``spec`` until none remain."""
        saw_any = spec.name is not None
        while True:
            if self.accept(AT):
                vlist = self.parse_version_list()
                if not spec.versions.universal and not vlist.universal:
                    raise err.SpecParseError(
                        "Spec cannot have two version lists", self.text, 0
                    )
                spec.versions = vlist
            elif self.accept(ON):
                name = self.expect(ID, "a variant name after '+'").value
                self._set_variant(spec, name, True)
            elif self.accept(OFF):
                name = self.expect(ID, "a variant name after '-'/'~'").value
                self._set_variant(spec, name, False)
            elif self.accept(PCT):
                if spec.compiler is not None:
                    raise err.DuplicateCompilerSpecError(
                        "Spec for %r has two compilers" % spec.name
                    )
                name = self.expect(ID, "a compiler name after '%'").value
                versions = None
                if self.accept(AT):
                    versions = self.parse_version_list()
                spec.compiler = CompilerSpec(name, versions)
            elif self.accept(EQ):
                if spec.architecture is not None:
                    raise err.DuplicateArchitectureError(
                        "Spec for %r has two architectures" % spec.name
                    )
                spec.architecture = self.expect(
                    ID, "an architecture name after '='"
                ).value
            else:
                break
            saw_any = True
        if not saw_any:
            bad = self.peek()
            raise err.SpecParseError(
                "Anonymous spec must have at least one constraint",
                self.text,
                bad.pos if bad else len(self.text),
            )

    def _set_variant(self, spec, name, value):
        if name in spec.variants:
            raise err.DuplicateVariantError(
                "Variant %r appears twice in spec for %r" % (name, spec.name)
            )
        spec.variants[name] = value

    def parse_version_list(self):
        vlist = VersionList()
        vlist.add(self.parse_version())
        while self.accept(COMMA):
            vlist.add(self.parse_version())
        return vlist

    def parse_version(self):
        """``id | id: | :id | id:id | :`` — one version constraint atom."""
        start = self.accept(ID)
        if self.accept(COLON):
            end = self.accept(ID)
            return VersionRange(
                Version(start.value) if start else None,
                Version(end.value) if end else None,
            )
        if start is None:
            bad = self.peek()
            raise err.SpecParseError(
                "Expected a version after '@'",
                self.text,
                bad.pos if bad else len(self.text),
            )
        return Version(start.value)


def parse_specs(text, into=None):
    """Parse a string into a list of Specs (one per whitespace-separated
    spec expression).  ``into``, an empty Spec, becomes the first of
    them: ``Spec(text)`` parses straight into itself."""
    return SpecParser(text).parse(into)
