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
functions, CAST, and CASE. Anything else raises UnsupportedSyntax.
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
    quoted: bool = False


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


def _tokenize(sql: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(sql):
        kind, text = m.lastgroup, m.group()
        if kind == "skip":
            continue
        if kind == "string":
            tokens.append(_Token("string", text[1:-1].replace("''", "'")))
        elif kind == "quoted":
            tokens.append(_Token("ident", text[1:-1], True))
        elif kind == "unclosed":
            raise UnsupportedSyntax(f"unclosed {text!r} near {sql[m.start():m.start() + 20]!r}")
        elif kind == "stray":
            raise UnsupportedSyntax(f"unexpected character {text!r}")
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

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and not tok.quoted and _upper(tok.text) in words

    def take_kw(self, *words: str) -> Optional[str]:
        if self.at_kw(*words):
            return _upper(self.advance().text)
        return None

    def expect_kw(self, word: str) -> None:
        if not self.take_kw(word):
            raise UnsupportedSyntax(f"expected {word}, found {self.peek().text!r}")

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def take_op(self, *texts: str) -> Optional[str]:
        if self.at_op(*texts):
            return self.advance().text
        return None

    def expect_op(self, text: str) -> None:
        if not self.take_op(text):
            raise UnsupportedSyntax(f"expected {text!r}, found {self.peek().text!r}")

    # ---- queries

    def parse_query(self) -> _RawQuery:
        if self.at_kw("WITH"):
            raise UnsupportedSyntax("WITH clauses are not supported")
        selects = [self.parse_select_core()]
        ops = []
        while self.at_kw("UNION", "INTERSECT", "EXCEPT"):
            op = _lower(self.advance().text)
            if op == "union" and self.take_kw("ALL"):
                op = "union all"
            ops.append(op)
            selects.append(self.parse_select_core())
        order = []
        limit = None
        if self.take_kw("ORDER"):
            self.expect_kw("BY")
            order.append(self.parse_order_term())
            while self.take_op(","):
                order.append(self.parse_order_term())
        if self.take_kw("LIMIT"):
            first = self.parse_expr()
            if self.take_op(","):
                second = self.parse_expr()
                limit = (second, first)
            elif self.take_kw("OFFSET"):
                limit = (first, self.parse_expr())
            else:
                limit = (first, None)
        return _RawQuery(selects=selects, ops=ops, order=order, limit=limit)

    def parse_order_term(self):
        expr = self.parse_expr()
        direction = "asc"
        if self.take_kw("DESC"):
            direction = "desc"
        else:
            self.take_kw("ASC")
        return (expr, direction)

    def parse_select_core(self) -> _RawSelect:
        self.expect_kw("SELECT")
        core = _RawSelect()
        if self.take_kw("DISTINCT"):
            core.distinct = True
        else:
            self.take_kw("ALL")
        core.items.append(self.parse_select_item())
        while self.take_op(","):
            core.items.append(self.parse_select_item())
        if self.take_kw("FROM"):
            core.sources.append(self.parse_source())
            while True:
                if self.take_op(","):
                    core.sources.append(self.parse_source())
                    continue
                if self.at_kw("NATURAL"):
                    raise UnsupportedSyntax("NATURAL joins are not supported")
                if self.at_kw("JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS"):
                    if self.take_kw("INNER", "CROSS"):
                        pass
                    elif self.take_kw("LEFT", "RIGHT", "FULL"):
                        self.take_kw("OUTER")
                    self.expect_kw("JOIN")
                    core.sources.append(self.parse_source())
                    if self.take_kw("ON"):
                        core.join_conds.append(self.parse_expr())
                    elif self.at_kw("USING"):
                        raise UnsupportedSyntax("USING join clauses are not supported")
                    continue
                break
        if self.take_kw("WHERE"):
            core.where = self.parse_expr()
        if self.take_kw("GROUP"):
            self.expect_kw("BY")
            core.group.append(self.parse_expr())
            while self.take_op(","):
                core.group.append(self.parse_expr())
        if self.take_kw("HAVING"):
            core.having = self.parse_expr()
        return core

    def parse_select_item(self):
        if self.take_op("*"):
            return (("star", None), None)
        expr = self.parse_expr()
        return (expr, self.parse_alias())

    def parse_alias(self) -> Optional[_Token]:
        if self.take_kw("AS"):
            tok = self.advance()
            if tok.kind != "ident":
                raise UnsupportedSyntax(f"expected alias, found {tok.text!r}")
            return tok
        tok = self.peek()
        if tok.kind == "ident" and (tok.quoted or _upper(tok.text) not in _RESERVED):
            return self.advance()
        return None

    def parse_source(self):
        if self.take_op("("):
            query = self.parse_query()
            self.expect_op(")")
            return ("subquery", query, self.parse_alias())
        tok = self.advance()
        if tok.kind != "ident":
            raise UnsupportedSyntax(f"expected table name, found {tok.text!r}")
        return ("table", tok, self.parse_alias())

    # ---- expressions (precedence: or < and < not < comparison < add < mul < concat < unary)

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.take_kw("OR"):
            left = ("bin", "or", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.take_kw("AND"):
            left = ("bin", "and", left, self.parse_not())
        return left

    def parse_not(self):
        if self.take_kw("NOT"):
            return ("not", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self):
        if self.take_kw("EXISTS"):
            self.expect_op("(")
            query = self.parse_query()
            self.expect_op(")")
            return ("exists", query)
        left = self.parse_additive()
        op = self.take_op("=", "==", "!=", "<>", "<", "<=", ">", ">=")
        if op:
            op = {"==": "=", "!=": "<>"}.get(op, op)
            return ("bin", op, left, self.parse_additive())
        if self.take_kw("IS"):
            negated = bool(self.take_kw("NOT"))
            if self.take_kw("NULL"):
                return ("isnull", left, negated)
            right = self.parse_additive()
            return ("bin", "is not" if negated else "is", left, right)
        negated = bool(self.take_kw("NOT"))
        if self.take_kw("IN"):
            self.expect_op("(")
            if self.at_kw("SELECT", "WITH"):
                query = self.parse_query()
                self.expect_op(")")
                return ("in", left, ("query", query), negated)
            items = []
            if not self.at_op(")"):
                items.append(self.parse_expr())
                while self.take_op(","):
                    items.append(self.parse_expr())
            self.expect_op(")")
            return ("in", left, items, negated)
        if self.take_kw("LIKE"):
            pattern = self.parse_additive()
            if self.at_kw("ESCAPE"):
                raise UnsupportedSyntax("LIKE ... ESCAPE is not supported")
            return ("bin", "not like" if negated else "like", left, pattern)
        if self.take_kw("BETWEEN"):
            low = self.parse_additive()
            self.expect_kw("AND")
            high = self.parse_additive()
            return ("between", left, low, high, negated)
        if negated:
            raise UnsupportedSyntax("NOT must precede IN, LIKE, or BETWEEN here")
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while True:
            op = self.take_op("+", "-")
            if not op:
                return left
            left = ("bin", op, left, self.parse_multiplicative())

    def parse_multiplicative(self):
        left = self.parse_concat()
        while True:
            op = self.take_op("*", "/", "%")
            if not op:
                return left
            left = ("bin", op, left, self.parse_concat())

    def parse_concat(self):
        left = self.parse_unary()
        while self.take_op("||"):
            left = ("bin", "||", left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.take_op("-"):
            return ("neg", self.parse_unary())
        if self.take_op("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            if self.at_kw("SELECT", "WITH"):
                query = self.parse_query()
                self.expect_op(")")
                return ("query", query)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if tok.kind == "number":
            self.advance()
            return ("num", tok.text)
        if tok.kind == "string":
            self.advance()
            return ("str", tok.text)
        if tok.kind == "ident":
            upper = _upper(tok.text) if not tok.quoted else ""
            if upper == "NULL":
                self.advance()
                return ("null",)
            if upper in ("TRUE", "FALSE"):
                self.advance()
                return ("num", "1" if upper == "TRUE" else "0")
            if upper == "CASE":
                return self.parse_case()
            if upper == "CAST":
                return self.parse_cast()
            self.advance()
            if self.at_op("(") and not tok.quoted:
                return self.parse_call(tok)
            if self.take_op("."):
                if self.take_op("*"):
                    return ("star", tok)
                name = self.advance()
                if name.kind != "ident":
                    raise UnsupportedSyntax(f"expected column after '.', found {name.text!r}")
                return ("col", tok, name)
            return ("col", None, tok)
        raise UnsupportedSyntax(f"unexpected token {tok.text!r}")

    def parse_call(self, name_tok: _Token):
        self.expect_op("(")
        name = _lower(name_tok.text)
        distinct = False
        args = []
        if self.take_op("*"):
            args.append(("star", None))
        elif not self.at_op(")"):
            distinct = bool(self.take_kw("DISTINCT"))
            args.append(self.parse_expr())
            while self.take_op(","):
                args.append(self.parse_expr())
        self.expect_op(")")
        if self.at_kw("OVER"):
            raise UnsupportedSyntax("window functions are not supported")
        return ("func", name, distinct, args)

    def parse_case(self):
        self.expect_kw("CASE")
        operand = None
        if not self.at_kw("WHEN"):
            operand = self.parse_expr()
        arms = []
        while self.take_kw("WHEN"):
            when = self.parse_expr()
            self.expect_kw("THEN")
            arms.append((when, self.parse_expr()))
        if not arms:
            raise UnsupportedSyntax("CASE without WHEN arms")
        default = None
        if self.take_kw("ELSE"):
            default = self.parse_expr()
        self.expect_kw("END")
        return ("case", operand, arms, default)

    def parse_cast(self):
        self.expect_kw("CAST")
        self.expect_op("(")
        expr = self.parse_expr()
        self.expect_kw("AS")
        words = []
        while self.peek().kind == "ident":
            words.append(_lower(self.advance().text))
        if self.take_op("("):
            inner = []
            while not self.at_op(")"):
                inner.append(self.advance().text)
            self.expect_op(")")
            words.append("(" + ",".join(inner) + ")")
        if not words:
            raise UnsupportedSyntax("CAST without target type")
        self.expect_op(")")
        return ("cast", expr, " ".join(words))


# ---------------------------------------------------------------------------
# canonicalization

_ATOM, _UNARY, _CONCAT, _MUL, _ADD, _CMP, _NOT, _AND, _OR = 9, 8, 7, 6, 5, 4, 3, 2, 1

_COMMUTATIVE = {"=", "<>"}
_SWAP_CMP = {">": "<", ">=": "<="}
_BIN_PREC = {
    "or": _OR, "and": _AND,
    "=": _CMP, "<>": _CMP, "<": _CMP, "<=": _CMP, ">": _CMP, ">=": _CMP,
    "is": _CMP, "is not": _CMP, "like": _CMP, "not like": _CMP,
    "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "%": _MUL, "||": _CONCAT,
}


def _canon_ident(tok: _Token) -> str:
    if not tok.quoted:
        return _lower(tok.text)
    if _SIMPLE_IDENT_RE.match(tok.text) and _upper(tok.text) not in _RESERVED:
        return tok.text
    return f"`{tok.text}`"


def _value_last_sort(parts: list[str]) -> list[str]:
    return sorted(parts, key=lambda p: (p == VALUE, p))


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

    def single_source(self) -> Optional[tuple[str, bool]]:
        if len(self.sources) == 1:
            return self.sources[0]
        return None


def _canon_query(raw: _RawQuery, parent: Optional[_Scope]) -> ClauseSet:
    canon_cores = []
    scopes = []
    aliases_list = []
    for core in raw.selects:
        cs, scope, out_aliases, ordered_items = _canon_select(core, parent)
        canon_cores.append(cs)
        scopes.append(scope)
        aliases_list.append((out_aliases, ordered_items))

    first_scope = scopes[0]
    out_aliases, ordered_items = aliases_list[0]

    order_terms = tuple(
        f"{_resolve_output_term(expr, first_scope, out_aliases, ordered_items)} {direction}"
        for expr, direction in raw.order
    )
    limit = None
    if raw.limit is not None:
        limit_expr, offset_expr = raw.limit
        limit = _canon_expr(limit_expr, first_scope)[0]
        if offset_expr is not None:
            limit += f" offset {_canon_expr(offset_expr, first_scope)[0]}"

    if len(canon_cores) == 1:
        return replace(canon_cores[0], order_by=order_terms, limit=limit)

    ops = tuple(raw.ops)
    children = tuple(canon_cores)
    uniform = len(set(ops)) == 1 and ops[0] in ("union", "union all", "intersect")
    if uniform:
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

    ordered_items: list[str] = []
    out_aliases: dict[str, str] = {}
    for expr, alias in core.items:
        text = _canon_expr(expr, scope)[0]
        ordered_items.append(text)
        if alias is not None:
            out_aliases[_lower(alias.text)] = text

    join_conditions = frozenset(
        _canon_expr(term, scope)[0] for cond in core.join_conds for term in _chain(cond, "and"))
    where_predicates = frozenset(
        _canon_expr(term, scope)[0] for term in _chain(core.where, "and"))
    group_by = frozenset(
        _resolve_output_term(e, scope, out_aliases, ordered_items) for e in core.group)
    having = frozenset(
        _resolve_output_term(term, scope, out_aliases, ordered_items)
        for term in _chain(core.having, "and"))

    cs = ClauseSet(
        select_items=frozenset(ordered_items),
        distinct=core.distinct,
        from_tables=frozenset(c for c, _ in scope.sources),
        join_conditions=join_conditions,
        where_predicates=where_predicates,
        group_by=group_by,
        having=having,
    )
    return cs, scope, out_aliases, ordered_items


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


def _resolve_output_term(expr, scope, out_aliases, ordered_items) -> str:
    """ORDER BY / GROUP BY term: resolve output aliases and 1-based positions."""
    if isinstance(expr, tuple) and expr[0] == "col" and expr[1] is None:
        name = _lower(expr[2].text)
        if name in out_aliases:
            return out_aliases[name]
    if isinstance(expr, tuple) and expr[0] == "num":
        try:
            pos = int(expr[1])
        except ValueError:
            pos = 0
        if 1 <= pos <= len(ordered_items):
            return ordered_items[pos - 1]
    return _canon_expr(expr, scope)[0]


def _wrap(text: str, prec: int, minimum: int) -> str:
    return f"({text})" if prec < minimum else text


def _canon_expr(node, scope: _Scope) -> tuple[str, int]:
    tag = node[0]
    if tag in ("num", "str"):
        return VALUE, _ATOM
    if tag == "null":
        return "null", _ATOM
    if tag == "col":
        qualifier, name_tok = node[1], node[2]
        name = _canon_ident(name_tok)
        if qualifier is not None:
            resolved = scope.resolve(_lower(qualifier.text))
            if resolved is None:
                resolved = _canon_ident(qualifier)
            if resolved.startswith("("):
                return name, _ATOM
            return f"{resolved}.{name}", _ATOM
        single = scope.single_source()
        if single is not None and single[1]:
            return f"{single[0]}.{name}", _ATOM
        return name, _ATOM
    if tag == "star":
        qualifier = node[1]
        if qualifier is None:
            return "*", _ATOM
        resolved = scope.resolve(_lower(qualifier.text))
        if resolved is None:
            resolved = _canon_ident(qualifier)
        if resolved.startswith("("):
            return "*", _ATOM
        return f"{resolved}.*", _ATOM
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
        if op in ("and", "or"):
            parts = sorted(_wrap(*_canon_expr(x, scope), prec + 1) for x in _chain(node, op))
            return f" {op} ".join(parts), prec
        if op in _SWAP_CMP:
            op = _SWAP_CMP[op]
            left, right = right, left
        lt, lp = _canon_expr(left, scope)
        rt, rp = _canon_expr(right, scope)
        lt = _wrap(lt, lp, prec)
        rt = _wrap(rt, rp, prec + 1)
        if op in _COMMUTATIVE:
            lt, rt = _value_last_sort([lt, rt])
        return f"{lt} {op} {rt}", prec
    if tag == "not":
        text, p = _canon_expr(node[1], scope)
        return f"not {_wrap(text, p, _NOT)}", _NOT
    if tag == "neg":
        text, p = _canon_expr(node[1], scope)
        if text == VALUE:
            return VALUE, _ATOM
        return f"-{_wrap(text, p, _UNARY)}", _UNARY
    if tag == "isnull":
        text, p = _canon_expr(node[1], scope)
        keyword = "is not null" if node[2] else "is null"
        return f"{_wrap(text, p, _CMP)} {keyword}", _CMP
    if tag == "in":
        _, needle, bag, negated = node
        text, p = _canon_expr(needle, scope)
        text = _wrap(text, p, _CMP)
        if isinstance(bag, list):
            inner = ", ".join(sorted(_canon_expr(e, scope)[0] for e in bag))
            target = f"({inner})"
        else:
            target = _canon_expr(bag, scope)[0]
        keyword = "not in" if negated else "in"
        return f"{text} {keyword} {target}", _CMP
    if tag == "between":
        _, subject, low, high, negated = node
        st, sp = _canon_expr(subject, scope)
        lo = _wrap(*_canon_expr(low, scope), minimum=_CMP + 1)
        hi = _wrap(*_canon_expr(high, scope), minimum=_CMP + 1)
        keyword = "not between" if negated else "between"
        return f"{_wrap(st, sp, _CMP)} {keyword} {lo} and {hi}", _CMP
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
    while parser.take_op(";"):
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
