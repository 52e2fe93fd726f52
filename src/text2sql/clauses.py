"""The SQL tokenizer, and clause-set canonicalization for the exact-match metric.

One tokenizer serves both metrics: EM parses its tokens, and EX reads it to
find a top-level ORDER BY (``has_top_level_order_by``).

A query is parsed into a ClauseSet whose clauses are normalized term sets:
keywords and unquoted identifiers are case-folded, table aliases are resolved
to real table names, and literal values are replaced by a placeholder. The
canonical form is re-renderable as SQL, and re-parsing the rendered form gives
back the identical ClauseSet.

Supported grammar: SELECT / FROM / JOIN..ON / WHERE / GROUP BY / HAVING /
ORDER BY / LIMIT, nested subqueries, UNION / INTERSECT / EXCEPT, aggregate
functions, CAST, CASE and EXISTS. Operators bind by the levels of _BIN_PREC,
where comparisons do not chain. Anything else raises UnsupportedSyntax,
among it "a = b = c" and NOT as an operand ("x > NOT y").
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

VALUE = "<value>"


class UnsupportedSyntax(Exception):
    """The query falls outside the supported grammar subset."""


@dataclass(frozen=True)
class ClauseSet:
    select_items: frozenset[str] = frozenset()
    distinct: bool = False
    from_tables: frozenset[str] = frozenset()
    join_conditions: frozenset[str] = frozenset()
    where_predicates: frozenset[str] = frozenset()
    group_by: frozenset[str] = frozenset()
    having: frozenset[str] = frozenset()
    order_by: tuple[str, ...] = ()
    limit: Optional[str] = None
    set_ops: tuple[str, ...] = ()
    children: tuple["ClauseSet", ...] = ()


# ---------------------------------------------------------------------------
# tokenizer

class _Token(NamedTuple):
    kind: str  # ident | number | string | op | end
    text: str
    # what the parser matches: an operator's text ("==" and "!=" as "=" and
    # "<>"), an unquoted identifier's ASCII upper case, and None for the rest
    key: Optional[str] = None


# One named group per token kind, tried in order: a closed comment, string or
# quoted identifier before the bare opener of an unclosed one, and a number
# before the "." operator. The character classes are SQLite's: whitespace and
# digits are ASCII only, and every character from U+0080 up is an identifier
# character, so "año" is one name and a no-break space is not a separator.
_TOKEN_RE = re.compile(r"""
    (?P<skip>[ \t\n\f\r]+|--[^\n]*|/\*.*?\*/)
  | (?P<string>'[^']*(?:''[^']*)*')
  | (?P<quoted>"[^"]*"|`[^`]*`|\[[^\]]*\])
  | (?P<unclosed>/\*|['"`\[])
  | (?P<number>0[xX][0-9a-fA-F]*|(?:[0-9]|\.[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_\x80-\U0010FFFF][A-Za-z0-9_$\x80-\U0010FFFF]*)
  | (?P<op><=|>=|<>|!=|==|\|\||[=<>+\-*/%(),.;])
  | (?P<stray>.)
""", re.VERBOSE | re.DOTALL)

_SIMPLE_IDENT_RE = re.compile(r"[a-z_][a-z0-9_]*$")

# SQLite folds case in ASCII only, for keywords and names alike: "ſelect" is a
# name, not SELECT, and "AÑO" and "año" are two different columns.
_TO_UPPER = str.maketrans(string.ascii_lowercase, string.ascii_uppercase)
_TO_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def _upper(text: str) -> str:
    return text.upper() if text.isascii() else text.translate(_TO_UPPER)


def _lower(text: str) -> str:
    return text.lower() if text.isascii() else text.translate(_TO_LOWER)

_RESERVED = {
    "SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "LIMIT", "OFFSET", "UNION", "INTERSECT", "EXCEPT", "JOIN",
    "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL", "ON",
    "USING", "AS", "AND", "OR", "NOT", "IS", "IN", "BETWEEN", "LIKE",
    "EXISTS", "NULL", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "ASC",
    "DESC", "COLLATE", "WITH", "VALUES", "OVER",
}

_SAME_OP = {"==": "=", "!=": "<>"}


def _tokenize(sql: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(sql):
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            continue
        if kind == "string":
            tokens.append(_Token("string", text[1:-1].replace("''", "'")))
        elif kind == "quoted":
            tokens.append(_Token("ident", text[1:-1]))
        elif kind == "unclosed":
            raise UnsupportedSyntax(f"unclosed {text!r} near {sql[m.start():m.start() + 20]!r}")
        elif kind == "stray":
            raise UnsupportedSyntax(f"unexpected character {text!r}")
        elif kind == "ident":
            tokens.append(_Token(kind, text, _upper(text)))
        elif kind == "op":
            tokens.append(_Token(kind, text, _SAME_OP.get(text, text)))
        else:
            tokens.append(_Token(kind, text))
    tokens.append(_Token("end", ""))
    return tokens


def has_top_level_order_by(sql: str) -> bool:
    """True when ORDER BY appears outside every parenthesis, quote and comment.

    This is the rule for ordered EX comparison. It never raises: an unclosed
    quote or comment runs to the end of the text, as SQLite reads an
    unterminated ``/*``.
    """
    depth, after_order = 0, False
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "unclosed":
            return False
        text = m.group()
        if kind == "ident":
            if depth == 0:
                word = _upper(text)
                if after_order and word == "BY":
                    return True
                after_order = word == "ORDER"
            continue
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
        after_order = False
    return False


# ---------------------------------------------------------------------------
# raw parse tree

@dataclass
class _RawSelect:
    distinct: bool = False
    items: list = field(default_factory=list)      # [(expr, alias_or_None)]
    sources: list = field(default_factory=list)    # [("table", tok, alias) | ("subquery", _RawQuery, alias)]
    join_conds: list = field(default_factory=list)
    where: Optional[tuple] = None
    group: list = field(default_factory=list)
    having: Optional[tuple] = None


@dataclass
class _RawQuery:
    selects: list
    ops: list
    order: list = field(default_factory=list)      # [(expr, "asc"|"desc")]
    limit: Optional[tuple] = None                  # (limit_expr, offset_expr_or_None)


# Precedence levels, loosest first. _BIN_PREC is the one statement of which
# binary operator binds at which level: the parser climbs it, and the
# canonical form adds parentheses by it. A level is a left-associative chain,
# except comparisons: their operands are never comparisons, so "a = b = c" is
# outside the grammar.
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _CONCAT, _UNARY, _ATOM = range(1, 10)

_BIN_PREC = {
    "OR": _OR, "AND": _AND,
    "=": _CMP, "<>": _CMP, "<": _CMP, "<=": _CMP, ">": _CMP, ">=": _CMP,
    "IS": _CMP, "IS NOT": _CMP, "LIKE": _CMP, "NOT LIKE": _CMP,
    "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "%": _MUL, "||": _CONCAT,
}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind == "end":
            raise UnsupportedSyntax("unexpected end of query")
        self.i += 1
        return tok

    def at(self, *keys: str) -> bool:
        return self.toks[self.i].key in keys

    def take(self, *keys: str) -> Optional[str]:
        key = self.toks[self.i].key
        if key in keys:
            self.i += 1
            return key
        return None

    def expect(self, key: str) -> None:
        if not self.take(key):
            raise UnsupportedSyntax(f"expected {key!r}, found {self.peek().text!r}")

    # ---- queries

    def parse_query(self) -> _RawQuery:
        if self.at("WITH"):
            raise UnsupportedSyntax("WITH clauses are not supported")
        selects = [self.parse_select_core()]
        ops = []
        while self.at("UNION", "INTERSECT", "EXCEPT"):
            op = _lower(self.advance().text)
            if op == "union" and self.take("ALL"):
                op = "union all"
            ops.append(op)
            selects.append(self.parse_select_core())
        order = []
        limit = None
        if self.take("ORDER"):
            self.expect("BY")
            order.append(self.parse_order_term())
            while self.take(","):
                order.append(self.parse_order_term())
        if self.take("LIMIT"):
            first = self.parse_expr()
            if self.take(","):
                second = self.parse_expr()
                limit = (second, first)
            elif self.take("OFFSET"):
                limit = (first, self.parse_expr())
            else:
                limit = (first, None)
        return _RawQuery(selects=selects, ops=ops, order=order, limit=limit)

    def parse_subquery(self) -> _RawQuery:
        """A query and the ")" that closes it; the "(" is already taken."""
        query = self.parse_query()
        self.expect(")")
        return query

    def parse_order_term(self):
        expr = self.parse_expr()
        direction = "asc"
        if self.take("DESC"):
            direction = "desc"
        else:
            self.take("ASC")
        return (expr, direction)

    def parse_select_core(self) -> _RawSelect:
        self.expect("SELECT")
        core = _RawSelect()
        if self.take("DISTINCT"):
            core.distinct = True
        else:
            self.take("ALL")
        core.items.append(self.parse_select_item())
        while self.take(","):
            core.items.append(self.parse_select_item())
        if self.take("FROM"):
            core.sources.append(self.parse_source())
            while True:
                if self.take(","):
                    core.sources.append(self.parse_source())
                    continue
                if self.at("NATURAL"):
                    raise UnsupportedSyntax("NATURAL joins are not supported")
                if not self.at("JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS"):
                    break
                if self.take("LEFT", "RIGHT", "FULL"):
                    self.take("OUTER")
                else:
                    self.take("INNER", "CROSS")
                self.expect("JOIN")
                core.sources.append(self.parse_source())
                if self.take("ON"):
                    core.join_conds.append(self.parse_expr())
                elif self.at("USING"):
                    raise UnsupportedSyntax("USING join clauses are not supported")
        if self.take("WHERE"):
            core.where = self.parse_expr()
        if self.take("GROUP"):
            self.expect("BY")
            core.group.append(self.parse_expr())
            while self.take(","):
                core.group.append(self.parse_expr())
        if self.take("HAVING"):
            core.having = self.parse_expr()
        return core

    def parse_select_item(self):
        if self.take("*"):
            return (("star", None), None)
        expr = self.parse_expr()
        return (expr, self.parse_alias())

    def parse_alias(self) -> Optional[_Token]:
        if self.take("AS"):
            tok = self.advance()
            if tok.kind != "ident":
                raise UnsupportedSyntax(f"expected alias, found {tok.text!r}")
            return tok
        tok = self.peek()
        if tok.kind == "ident" and tok.key not in _RESERVED:
            return self.advance()
        return None

    def parse_source(self):
        if self.take("("):
            return ("subquery", self.parse_subquery(), self.parse_alias())
        tok = self.advance()
        if tok.kind != "ident":
            raise UnsupportedSyntax(f"expected table name, found {tok.text!r}")
        return ("table", tok, self.parse_alias())

    # ---- expressions

    def parse_expr(self, prec: int = _OR):
        """An expression whose operators all bind at ``prec`` or tighter.

        A level of _BIN_PREC parses as a chain of its operators with operands
        one level tighter. Prefix NOT, the comparison and unary minus are the
        levels with forms of their own.
        """
        if prec == _NOT and self.take("NOT"):
            return ("not", self.parse_expr(_NOT))
        if prec in (_NOT, _CMP):
            return self.parse_predicate()
        if prec == _UNARY:
            if self.take("-"):
                return ("neg", self.parse_expr(_UNARY))
            if self.take("+"):
                return self.parse_expr(_UNARY)
            return self.parse_primary()
        left = self.parse_expr(prec + 1)
        while _BIN_PREC.get(self.peek().key) == prec:
            left = ("bin", self.advance().key, left, self.parse_expr(prec + 1))
        return left

    def parse_predicate(self):
        left = self.parse_expr(_CMP + 1)
        if self.take("IS"):
            negated = bool(self.take("NOT"))
            if self.take("NULL"):
                return ("isnull", left, negated)
            return ("bin", "IS NOT" if negated else "IS", left, self.parse_expr(_CMP + 1))
        negated = bool(self.take("NOT"))
        if self.take("IN"):
            self.expect("(")
            if self.at("SELECT", "WITH"):
                return ("in", left, ("query", self.parse_subquery()), negated)
            items = []
            if not self.at(")"):
                items.append(self.parse_expr())
                while self.take(","):
                    items.append(self.parse_expr())
            self.expect(")")
            return ("in", left, items, negated)
        if self.take("LIKE"):
            pattern = self.parse_expr(_CMP + 1)
            if self.at("ESCAPE"):
                raise UnsupportedSyntax("LIKE ... ESCAPE is not supported")
            return ("bin", "NOT LIKE" if negated else "LIKE", left, pattern)
        if self.take("BETWEEN"):
            low = self.parse_expr(_CMP + 1)
            self.expect("AND")
            high = self.parse_expr(_CMP + 1)
            return ("between", left, low, high, negated)
        if negated:
            raise UnsupportedSyntax("NOT must precede IN, LIKE, or BETWEEN here")
        if _BIN_PREC.get(self.peek().key) == _CMP:
            return ("bin", self.advance().key, left, self.parse_expr(_CMP + 1))
        return left

    def parse_primary(self):
        tok = self.peek()
        if self.take("("):
            if self.at("SELECT", "WITH"):
                return ("query", self.parse_subquery())
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind in ("number", "string"):
            self.advance()
            return (tok.kind, tok.text)
        if tok.kind == "ident":
            if tok.key == "NULL":
                self.advance()
                return ("null",)
            if tok.key in ("TRUE", "FALSE"):
                self.advance()
                return ("number", "1" if tok.key == "TRUE" else "0")
            if tok.key == "CASE":
                return self.parse_case()
            if tok.key == "CAST":
                return self.parse_cast()
            if tok.key == "NOT":
                # SQLite reads "x > NOT y" as a prefix NOT; the canonical form has no place for it
                raise UnsupportedSyntax("NOT as an operand is not supported")
            self.advance()
            if tok.key == "EXISTS":
                self.expect("(")
                return ("exists", self.parse_subquery())
            if tok.key and self.at("("):
                return self.parse_call(tok)
            if self.take("."):
                if self.take("*"):
                    return ("star", tok)
                name = self.advance()
                if name.kind != "ident":
                    raise UnsupportedSyntax(f"expected column after '.', found {name.text!r}")
                return ("col", tok, name)
            return ("col", None, tok)
        raise UnsupportedSyntax(f"unexpected token {tok.text!r}")

    def parse_call(self, name_tok: _Token):
        self.expect("(")
        name = _lower(name_tok.text)
        distinct = False
        args = []
        if self.take("*"):
            args.append(("star", None))
        elif not self.at(")"):
            distinct = bool(self.take("DISTINCT"))
            args.append(self.parse_expr())
            while self.take(","):
                args.append(self.parse_expr())
        self.expect(")")
        if self.at("OVER"):
            raise UnsupportedSyntax("window functions are not supported")
        return ("func", name, distinct, args)

    def parse_case(self):
        self.expect("CASE")
        operand = None
        if not self.at("WHEN"):
            operand = self.parse_expr()
        arms = []
        while self.take("WHEN"):
            when = self.parse_expr()
            self.expect("THEN")
            arms.append((when, self.parse_expr()))
        if not arms:
            raise UnsupportedSyntax("CASE without WHEN arms")
        default = None
        if self.take("ELSE"):
            default = self.parse_expr()
        self.expect("END")
        return ("case", operand, arms, default)

    def parse_cast(self):
        self.expect("CAST")
        self.expect("(")
        expr = self.parse_expr()
        self.expect("AS")
        words = []
        while self.peek().kind == "ident":
            words.append(_lower(self.advance().text))
        if self.take("("):
            inner = []
            while not self.at(")"):
                inner.append(self.advance().text)
            self.expect(")")
            words.append("(" + ",".join(inner) + ")")
        if not words:
            raise UnsupportedSyntax("CAST without target type")
        self.expect(")")
        return ("cast", expr, " ".join(words))


# ---------------------------------------------------------------------------
# canonicalization

_COMMUTATIVE = {"=", "<>"}
_SWAP_CMP = {">": "<", ">=": "<="}


def _canon_ident(tok: _Token) -> str:
    if tok.key is not None:  # unquoted
        return _lower(tok.text)
    if _SIMPLE_IDENT_RE.match(tok.text) and _upper(tok.text) not in _RESERVED:
        return tok.text
    return f"`{tok.text}`"


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.alias_map: dict[str, str] = {}
        self.sources: list[tuple[str, bool]] = []  # (canonical, is_real_table)

    def resolve(self, qualifier_lower: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if qualifier_lower in scope.alias_map:
                return scope.alias_map[qualifier_lower]
            scope = scope.parent
        return None


def _canon_query(raw: _RawQuery, parent: Optional[_Scope]) -> ClauseSet:
    first, scope, items, out_aliases = _canon_select(raw.selects[0], parent)
    cores = [first] + [_canon_select(core, parent)[0] for core in raw.selects[1:]]

    order_terms = tuple(
        f"{_resolve_output_term(expr, scope, out_aliases, items)[0]} {direction}"
        for expr, direction in raw.order
    )
    limit = None
    if raw.limit is not None:
        limit_expr, offset_expr = raw.limit
        limit = _canon_expr(limit_expr, scope)[0]
        if offset_expr is not None:
            limit += f" offset {_canon_expr(offset_expr, scope)[0]}"

    if len(cores) == 1:
        return replace(first, order_by=order_terms, limit=limit)

    ops = tuple(raw.ops)
    children = tuple(cores)
    uniform = len(set(ops)) == 1 and ops[0] in ("union", "union all", "intersect")
    # an ORDER BY names columns of the first core, which then keeps its place
    if uniform and not order_terms:
        children = tuple(sorted(children, key=render_clause_set))
    return ClauseSet(set_ops=ops, children=children, order_by=order_terms, limit=limit)


def _canon_select(core: _RawSelect, parent: Optional[_Scope]):
    scope = _Scope(parent)
    for kind, payload, alias in core.sources:
        if kind == "table":
            canonical = _canon_ident(payload)
            is_table = True
        else:
            canonical = "(" + render_clause_set(_canon_query(payload, parent)) + ")"
            is_table = False
        scope.sources.append((canonical, is_table))
        if alias is not None:
            scope.alias_map[_lower(alias.text)] = canonical
        elif is_table:
            scope.alias_map[_lower(payload.text)] = canonical

    items = [_canon_expr(expr, scope) for expr, _ in core.items]
    out_aliases = {_lower(alias.text): item
                   for (_, alias), item in zip(core.items, items) if alias is not None}

    def conjuncts(conditions, canon=lambda term: _canon_expr(term, scope)):
        # an OR term keeps its parentheses, so the terms joined by "and" parse back
        return frozenset(_wrap(*canon(term), _AND + 1)
                         for cond in conditions for term in _chain(cond, "AND"))

    cs = ClauseSet(
        select_items=frozenset(text for text, _ in items),
        distinct=core.distinct,
        from_tables=frozenset(c for c, _ in scope.sources),
        join_conditions=conjuncts(core.join_conds),
        where_predicates=conjuncts([core.where]),
        group_by=frozenset(
            _resolve_output_term(e, scope, out_aliases, items)[0] for e in core.group),
        # a number in HAVING is a value, not a position
        having=conjuncts(
            [core.having], lambda term: _resolve_output_term(term, scope, out_aliases, ())),
    )
    return cs, scope, items, out_aliases


def _chain(node, op: str) -> list:
    """The operands of a nested chain of one binary operator, left to right.

    Walked with a stack, so a long AND chain needs no recursion. None gives
    no operands.
    """
    operands, stack = [], [] if node is None else [node]
    while stack:
        node = stack.pop()
        if node[0] == "bin" and node[1] == op:
            stack += (node[3], node[2])
        else:
            operands.append(node)
    return operands


def _resolve_output_term(expr, scope, out_aliases, items) -> tuple[str, int]:
    """An ORDER BY, GROUP BY or HAVING term; an output alias or a 1-based
    position in ``items`` reads as its item."""
    if expr[0] == "col" and expr[1] is None:
        name = _lower(expr[2].text)
        if name in out_aliases:
            return out_aliases[name]
    if expr[0] == "number":
        try:
            pos = int(expr[1])
        except ValueError:
            pos = 0
        if 1 <= pos <= len(items):
            if any(text == "*" or text.endswith(".*") for text, _ in items[:pos]):
                raise UnsupportedSyntax("a position at or after * names no known column")
            return items[pos - 1]
    return _canon_expr(expr, scope)


def _wrap(text: str, prec: int, minimum: int) -> str:
    return f"({text})" if prec < minimum else text


def _qualified(qualifier: _Token, name: str, scope: _Scope) -> str:
    """A qualified name: an alias reads as its table.

    A subquery's alias drops out in its own scope. In a nested scope it stays
    as written, as the bare name could read as a column of a nested table.
    """
    key = _lower(qualifier.text)
    table = scope.resolve(key) or _canon_ident(qualifier)
    if not table.startswith("("):
        return f"{table}.{name}"
    return name if key in scope.alias_map else f"{_canon_ident(qualifier)}.{name}"


def _canon_expr(node, scope: _Scope) -> tuple[str, int]:
    tag = node[0]
    if tag in ("number", "string"):
        return VALUE, _ATOM
    if tag == "null":
        return "null", _ATOM
    if tag == "col":
        qualifier, name = node[1], _canon_ident(node[2])
        if qualifier is not None:
            return _qualified(qualifier, name, scope), _ATOM
        if len(scope.sources) == 1 and scope.sources[0][1]:
            return f"{scope.sources[0][0]}.{name}", _ATOM
        return name, _ATOM
    if tag == "star":
        return ("*" if node[1] is None else _qualified(node[1], "*", scope)), _ATOM
    if tag == "func":
        _, name, distinct, args = node
        if len(args) == 1 and args[0][0] == "star" and args[0][1] is None:
            inner = "*"
        else:
            inner = ", ".join(_canon_expr(a, scope)[0] for a in args)
        if distinct:
            inner = f"distinct {inner}"
        return f"{name}({inner})", _ATOM
    if tag == "bin":
        _, op, left, right = node
        prec = _BIN_PREC[op]
        if op in ("AND", "OR"):
            parts = sorted(_wrap(*_canon_expr(x, scope), prec + 1) for x in _chain(node, op))
            return f" {op.lower()} ".join(parts), prec
        if op in _SWAP_CMP:
            op = _SWAP_CMP[op]
            left, right = right, left
        lt, lp = _canon_expr(left, scope)
        rt, rp = _canon_expr(right, scope)
        # a chain takes its left operand at its own level, but comparisons do not chain
        lt = _wrap(lt, lp, prec + (prec == _CMP))
        rt = _wrap(rt, rp, prec + 1)
        if op in _COMMUTATIVE:
            lt, rt = sorted([lt, rt], key=lambda p: (p == VALUE, p))
        return f"{lt} {op.lower()} {rt}", prec
    if tag == "not":
        text, p = _canon_expr(node[1], scope)
        return f"not {_wrap(text, p, _NOT)}", _NOT
    if tag == "neg":
        text, p = _canon_expr(node[1], scope)
        if text == VALUE:
            return VALUE, _ATOM
        # "-(-x)", as "--x" would start a comment
        return f"-{_wrap(text, p, _ATOM)}", _UNARY
    if tag == "isnull":
        text, p = _canon_expr(node[1], scope)
        keyword = "is not null" if node[2] else "is null"
        return f"{_wrap(text, p, _CMP + 1)} {keyword}", _CMP
    if tag == "in":
        _, needle, bag, negated = node
        text = _wrap(*_canon_expr(needle, scope), _CMP + 1)
        if isinstance(bag, list):
            inner = ", ".join(sorted(_canon_expr(e, scope)[0] for e in bag))
            target = f"({inner})"
        else:
            target = _canon_expr(bag, scope)[0]
        keyword = "not in" if negated else "in"
        return f"{text} {keyword} {target}", _CMP
    if tag == "between":
        _, subject, low, high, negated = node
        st = _wrap(*_canon_expr(subject, scope), _CMP + 1)
        lo = _wrap(*_canon_expr(low, scope), _CMP + 1)
        hi = _wrap(*_canon_expr(high, scope), _CMP + 1)
        keyword = "not between" if negated else "between"
        return f"{st} {keyword} {lo} and {hi}", _CMP
    if tag == "exists":
        child = _canon_query(node[1], scope)
        return f"exists ({render_clause_set(child)})", _ATOM
    if tag == "case":
        _, operand, arms, default = node
        parts = ["case"]
        if operand is not None:
            parts.append(_canon_expr(operand, scope)[0])
        for when, then in arms:
            parts.append(f"when {_canon_expr(when, scope)[0]} "
                         f"then {_canon_expr(then, scope)[0]}")
        if default is not None:
            parts.append(f"else {_canon_expr(default, scope)[0]}")
        parts.append("end")
        return " ".join(parts), _ATOM
    if tag == "cast":
        inner = _canon_expr(node[1], scope)[0]
        return f"cast({inner} as {node[2]})", _ATOM
    if tag == "query":
        child = _canon_query(node[1], scope)
        return f"({render_clause_set(child)})", _ATOM
    raise UnsupportedSyntax(f"cannot canonicalize node {tag!r}")


# ---------------------------------------------------------------------------
# public API

def parse_to_clause_set(sql: str) -> ClauseSet:
    """Canonical ClauseSet of one query; raises UnsupportedSyntax outside the grammar."""
    tokens = _tokenize(sql)
    parser = _Parser(tokens)
    raw = parser.parse_query()
    while parser.take(";"):
        pass
    if parser.peek().kind != "end":
        raise UnsupportedSyntax(f"trailing tokens near {parser.peek().text!r}")
    return _canon_query(raw, None)


def render_clause_set(cs: ClauseSet) -> str:
    """Deterministic canonical text; see render_sql for a re-parseable variant."""
    if cs.set_ops:
        parts = [render_clause_set(cs.children[0])]
        for op, child in zip(cs.set_ops, cs.children[1:]):
            parts.append(op)
            parts.append(render_clause_set(child))
        text = " ".join(parts)
    else:
        bits = ["select"]
        if cs.distinct:
            bits.append("distinct")
        bits.append(", ".join(sorted(cs.select_items)))
        if cs.from_tables:
            bits.append("from")
            tables = sorted(cs.from_tables)
            if cs.join_conditions and len(tables) == 1:
                # a self-join collapsed to one canonical name; keep the join shape
                tables = tables * 2
            bits.append(" join ".join(tables))
            if cs.join_conditions:
                bits.append("on")
                bits.append(" and ".join(sorted(cs.join_conditions)))
        if cs.where_predicates:
            bits.append("where")
            bits.append(" and ".join(sorted(cs.where_predicates)))
        if cs.group_by:
            bits.append("group by")
            bits.append(", ".join(sorted(cs.group_by)))
        if cs.having:
            bits.append("having")
            bits.append(" and ".join(sorted(cs.having)))
        text = " ".join(bits)
    if cs.order_by:
        text += " order by " + ", ".join(cs.order_by)
    if cs.limit is not None:
        text += " limit " + cs.limit
    return text


def render_sql(cs: ClauseSet) -> str:
    """Canonical text with value placeholders made parseable again."""
    return render_clause_set(cs).replace(VALUE, "0")
