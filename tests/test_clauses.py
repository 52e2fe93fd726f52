from __future__ import annotations

import signal

import pytest

from text2sql.clauses import (
    VALUE,
    ClauseSet,
    UnsupportedSyntax,
    has_top_level_order_by,
    parse_to_clause_set,
    render_clause_set,
    render_sql,
)
from text2sql.evaluation import exact_match


def roundtrips(sql: str) -> bool:
    cs = parse_to_clause_set(sql)
    return parse_to_clause_set(render_sql(cs)) == cs


class TestBasics:
    def test_alias_resolution_and_value_masking(self):
        cs = parse_to_clause_set("SELECT a FROM t AS x WHERE x.b = 3")
        assert cs.select_items == frozenset({"t.a"})
        assert cs.from_tables == frozenset({"t"})
        assert cs.where_predicates == frozenset({"t.b = <value>"})

    def test_commutative_where_conjuncts(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE p = 1 AND q = 2")
        b = parse_to_clause_set("SELECT a FROM t WHERE q = 2 AND p = 1")
        assert a == b

    def test_case_folding_unquoted_only(self):
        assert parse_to_clause_set("SELECT A FROM T") == parse_to_clause_set("select a from t")
        quoted = parse_to_clause_set("SELECT `A` FROM t")
        bare = parse_to_clause_set("SELECT a FROM t")
        assert quoted != bare

    def test_string_literals_masked(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE name = 'alice'")
        b = parse_to_clause_set("SELECT a FROM t WHERE name = 'bob'")
        assert a == b

    def test_equality_operand_order(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE t.b = 3")
        b = parse_to_clause_set("SELECT a FROM t WHERE 3 = t.b")
        assert a == b

    def test_comparison_direction_normalized(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE x > 5")
        b = parse_to_clause_set("SELECT a FROM t WHERE 5 < x")
        assert a == b

    def test_not_equal_spellings(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE x != 1")
        b = parse_to_clause_set("SELECT a FROM t WHERE x <> 2")
        assert a == b

    def test_distinct_flag_matters(self):
        assert (parse_to_clause_set("SELECT DISTINCT a FROM t")
                != parse_to_clause_set("SELECT a FROM t"))

    def test_limit_value_masked(self):
        a = parse_to_clause_set("SELECT a FROM t LIMIT 1")
        b = parse_to_clause_set("SELECT a FROM t LIMIT 500")
        assert a == b
        assert a.limit == VALUE

    def test_extra_order_by_differs(self):
        assert (parse_to_clause_set("SELECT a FROM t ORDER BY a")
                != parse_to_clause_set("SELECT a FROM t"))

    def test_order_by_direction(self):
        asc = parse_to_clause_set("SELECT a FROM t ORDER BY a")
        asc_explicit = parse_to_clause_set("SELECT a FROM t ORDER BY a ASC")
        desc = parse_to_clause_set("SELECT a FROM t ORDER BY a DESC")
        assert asc == asc_explicit
        assert asc != desc

    def test_positional_order_by(self):
        positional = parse_to_clause_set("SELECT a, b FROM t ORDER BY 2")
        named = parse_to_clause_set("SELECT a, b FROM t ORDER BY b")
        assert positional == named

    def test_output_alias_in_order_by(self):
        aliased = parse_to_clause_set("SELECT count(*) AS n FROM t ORDER BY n DESC")
        direct = parse_to_clause_set("SELECT count(*) FROM t ORDER BY count(*) DESC")
        assert aliased == direct


class TestGrammarBranches:
    """One case for each branch of the grammar that no other test parses."""

    def test_prefix_not(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE NOT a = 1")
        assert cs.where_predicates == frozenset({"not t.a = <value>"})

    def test_is_expression(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE a IS NOT b")
        assert cs.where_predicates == frozenset({"t.a is not t.b"})

    def test_limit_offset_spellings(self):
        offset = parse_to_clause_set("SELECT a FROM t LIMIT 5 OFFSET 10")
        comma = parse_to_clause_set("SELECT a FROM t LIMIT 10, 5")
        assert offset.limit == f"{VALUE} offset {VALUE}"
        assert comma == offset

    def test_true_false_are_values(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE b = TRUE AND c = false")
        assert cs.where_predicates == frozenset({"t.b = <value>", "t.c = <value>"})

    def test_unary_plus_dropped(self):
        assert parse_to_clause_set("SELECT +a FROM t") == parse_to_clause_set("SELECT a FROM t")

    def test_case_with_operand(self):
        cs = parse_to_clause_set("SELECT CASE x WHEN 1 THEN 'a' END FROM t")
        assert cs.select_items == frozenset({"case t.x when <value> then <value> end"})

    def test_star_through_alias(self):
        cs = parse_to_clause_set("SELECT x.* FROM t AS x JOIN u ON x.i = u.i")
        assert cs.select_items == frozenset({"t.*"})

    def test_comma_join(self):
        cs = parse_to_clause_set("SELECT t.a FROM t, u AS v WHERE t.i = v.i")
        assert cs.from_tables == frozenset({"t", "u"})
        assert cs.where_predicates == frozenset({"t.i = u.i"})

    def test_left_outer_join(self):
        outer = parse_to_clause_set("SELECT t.a FROM t LEFT OUTER JOIN u ON t.i = u.i")
        assert outer == parse_to_clause_set("SELECT t.a FROM t LEFT JOIN u ON t.i = u.i")
        assert outer.join_conditions == frozenset({"t.i = u.i"})

    def test_group_by_two_keys(self):
        cs = parse_to_clause_set("SELECT a, COUNT(*) FROM t GROUP BY a, b")
        assert cs.group_by == frozenset({"t.a", "t.b"})


class TestPrecedence:
    """EM compares what a query says; the round trips are in TestIdempotence."""

    SUBQUERY = "SELECT x FROM t WHERE a IN (SELECT y FROM u WHERE {})"

    def test_or_conjunct_keeps_its_parentheses(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert cs.where_predicates == frozenset(
            {"(t.a = <value> or t.b = <value>)", "t.c = <value>"})

    def test_and_or_grouping_in_a_subquery_differs(self):
        assert exact_match(self.SUBQUERY.format("(p = 1 OR q = 2) AND r = 3"),
                           self.SUBQUERY.format("p = 1 OR (q = 2 AND r = 3)")) is False

    @pytest.mark.parametrize("pred,gold", [
        ("c = (a < b)", "(a < b) = c"),
        ("(a = 1) = (b = 2)", "(b = 2) = (a = 1)"),
    ])
    def test_nested_comparison_operands_commute(self, pred, gold):
        assert exact_match(f"SELECT x FROM t WHERE {pred}",
                           f"SELECT x FROM t WHERE {gold}") is True

    def test_exists_is_an_operand(self):
        assert exact_match("SELECT 1 + EXISTS (SELECT 1)", "SELECT 2 + EXISTS (SELECT 3)") is True

    def test_double_negation_is_no_comment(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE -(-x) > 1")
        assert cs.where_predicates == frozenset({"<value> < -(-t.x)"})

    def test_having_number_is_a_value(self):
        assert exact_match("SELECT a, b FROM t GROUP BY a HAVING 1",
                           "SELECT a, b FROM t GROUP BY a HAVING 2") is True


class TestJoins:
    def test_join_condition_operand_order(self):
        a = parse_to_clause_set("SELECT x.a FROM t AS x JOIN u AS y ON x.id = y.id")
        b = parse_to_clause_set("SELECT p.a FROM t AS p JOIN u AS q ON q.id = p.id")
        assert a == b
        assert a.join_conditions == frozenset({"t.id = u.id"})

    def test_join_order_irrelevant(self):
        a = parse_to_clause_set("SELECT t.a FROM t JOIN u ON t.x = u.x")
        b = parse_to_clause_set("SELECT t.a FROM u JOIN t ON t.x = u.x")
        assert a == b

    def test_inner_keyword_optional(self):
        a = parse_to_clause_set("SELECT t.a FROM t INNER JOIN u ON t.x = u.x")
        b = parse_to_clause_set("SELECT t.a FROM t JOIN u ON t.x = u.x")
        assert a == b

    def test_multi_join_conditions_pool(self):
        cs = parse_to_clause_set(
            "SELECT a.v FROM a JOIN b ON a.i = b.i JOIN c ON b.j = c.j")
        assert cs.from_tables == frozenset({"a", "b", "c"})
        assert cs.join_conditions == frozenset({"a.i = b.i", "b.j = c.j"})


class TestExpressions:
    def test_aggregates(self):
        cs = parse_to_clause_set("SELECT COUNT(*), AVG(x), SUM(DISTINCT y) FROM t")
        assert cs.select_items == frozenset({"count(*)", "avg(t.x)", "sum(distinct t.y)"})

    def test_cast(self):
        cs = parse_to_clause_set("SELECT CAST(a AS REAL) / b FROM t")
        assert cs.select_items == frozenset({"cast(t.a as real) / t.b"})

    def test_case(self):
        cs = parse_to_clause_set(
            "SELECT CASE WHEN x > 0 THEN 'p' ELSE 'n' END FROM t")
        item = next(iter(cs.select_items))
        assert item.startswith("case when")
        assert "end" in item

    def test_in_list(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE x IN (1, 2)")
        b = parse_to_clause_set("SELECT a FROM t WHERE x IN (7, 9)")
        assert a == b

    def test_between(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE x BETWEEN 1 AND 5")
        assert cs.where_predicates == frozenset({"t.x between <value> and <value>"})

    def test_like(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE name LIKE '%x%'")
        assert cs.where_predicates == frozenset({"t.name like <value>"})

    def test_is_null(self):
        cs = parse_to_clause_set("SELECT a FROM t WHERE x IS NOT NULL")
        assert cs.where_predicates == frozenset({"t.x is not null"})

    def test_or_chain_sorted(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE p = 1 OR q = 1")
        b = parse_to_clause_set("SELECT a FROM t WHERE q = 1 OR p = 1")
        assert a == b

    def test_group_by_and_having(self):
        cs = parse_to_clause_set(
            "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 2")
        assert cs.group_by == frozenset({"t.g"})
        assert cs.having == frozenset({"<value> < count(*)"})

    def test_concat(self):
        cs = parse_to_clause_set("SELECT a || 'x' FROM t")
        assert cs.select_items == frozenset({f"t.a || {VALUE}"})

    def test_negative_number_masked(self):
        a = parse_to_clause_set("SELECT a FROM t WHERE x = -5")
        b = parse_to_clause_set("SELECT a FROM t WHERE x = 5")
        assert a == b


class TestSubqueries:
    def test_scalar_subquery_alias_insensitive(self):
        a = parse_to_clause_set(
            "SELECT a FROM t WHERE x > (SELECT AVG(x) FROM t AS z)")
        b = parse_to_clause_set(
            "SELECT a FROM t WHERE x > (SELECT AVG(w.x) FROM t AS w)")
        assert a == b

    def test_in_subquery(self):
        cs = parse_to_clause_set(
            "SELECT a FROM t WHERE id IN (SELECT tid FROM u)")
        predicate = next(iter(cs.where_predicates))
        assert predicate.startswith("t.id in (select")

    def test_exists(self):
        cs = parse_to_clause_set(
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.i = t.i)")
        predicate = next(iter(cs.where_predicates))
        assert predicate.startswith("exists (select")

    def test_from_subquery(self):
        cs = parse_to_clause_set("SELECT v FROM (SELECT v FROM t) AS s")
        table = next(iter(cs.from_tables))
        assert table.startswith("(select")
        assert cs.select_items == frozenset({"v"})

    def test_correlated_alias_rename(self):
        a = parse_to_clause_set(
            "SELECT a FROM t AS o WHERE o.x > (SELECT AVG(i.x) FROM t AS i WHERE i.g = o.g)")
        b = parse_to_clause_set(
            "SELECT a FROM t AS m WHERE m.x > (SELECT AVG(k.x) FROM t AS k WHERE k.g = m.g)")
        assert a == b


class TestSetOps:
    def test_union_commutative(self):
        a = parse_to_clause_set("SELECT a FROM t UNION SELECT b FROM u")
        b = parse_to_clause_set("SELECT b FROM u UNION SELECT a FROM t")
        assert a == b

    def test_union_vs_union_all(self):
        a = parse_to_clause_set("SELECT a FROM t UNION SELECT b FROM u")
        b = parse_to_clause_set("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert a != b

    def test_except_order_matters(self):
        a = parse_to_clause_set("SELECT a FROM t EXCEPT SELECT b FROM u")
        b = parse_to_clause_set("SELECT b FROM u EXCEPT SELECT a FROM t")
        assert a != b

    def test_intersect(self):
        cs = parse_to_clause_set("SELECT a FROM t INTERSECT SELECT b FROM u")
        assert cs.set_ops == ("intersect",)
        assert len(cs.children) == 2


class TestUnsupported:
    @pytest.mark.parametrize("sql", [
        "WITH c AS (SELECT 1) SELECT * FROM c",
        "SELECT ROW_NUMBER() OVER (ORDER BY a) FROM t",
        "SELECT a FROM t NATURAL JOIN u",
        "SELECT a FROM t JOIN u USING (id)",
        "INSERT INTO t VALUES (1)",
        "SELECT a FROM t WHERE x GLOB 'a*'",
        "SELECT a FROM t; SELECT b FROM u",
        "SELECT a FROM t WHERE a LIKE 'x!%' ESCAPE '!'",
        "SELECT a FROM t WHERE x > NOT (y)",
        "SELECT a FROM t WHERE a = b = c",
        "SELECT *, a FROM t ORDER BY 2",  # column 2 is the second column of t, not a
    ])
    def test_raises(self, sql):
        with pytest.raises(UnsupportedSyntax):
            parse_to_clause_set(sql)


class TestIdempotence:
    CASES = [
        "SELECT a FROM t AS x WHERE x.b = 3",
        "SELECT DISTINCT a, b FROM t WHERE p = 1 AND q = 'x' OR r IS NULL",
        "SELECT COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 3",
        "SELECT t.a, u.b FROM t JOIN u ON t.i = u.i WHERE t.x BETWEEN 1 AND 9",
        "SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE u.k = t.k)",
        "SELECT a FROM t UNION SELECT b FROM u",
        "SELECT a FROM t EXCEPT SELECT b FROM u ORDER BY 1 LIMIT 2",
        "SELECT CAST(a AS REAL) / NULLIF(b, 0) FROM t",
        "SELECT CASE WHEN x > 0 THEN 1 ELSE -1 END, a || b FROM t",
        "SELECT v FROM (SELECT v FROM t WHERE v > 2) AS sub WHERE v < 10",
        "SELECT `Charter School (Y/N)` FROM frpm WHERE `Charter School (Y/N)` = 1",
        "SELECT sname FROM satscores WHERE NumGE1500 IN (1, 2, 3) AND sname NOT LIKE 'x%'",
        # parentheses the canonical text must keep
        "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3",
        "SELECT a FROM t WHERE (a <> 1) <= 2",
        "SELECT a FROM t WHERE (a = 1) IS NULL",
        "SELECT a FROM t WHERE (a = 1) IN (1, 2)",
        "SELECT a FROM t WHERE (a = 1) NOT BETWEEN 0 AND 1",
        "SELECT a FROM t WHERE (EXISTS (SELECT 1 FROM u)) > 1",
        "SELECT a FROM t WHERE -(-x) > 1",
        "SELECT left, full, end FROM t WHERE end > 1",
        "SELECT * FROM t GROUP BY a HAVING 1",
        "SELECT x FROM t, u UNION SELECT a FROM v ORDER BY x",
        "SELECT s.a FROM (SELECT a FROM u) AS s WHERE EXISTS (SELECT 1 FROM t WHERE t.b = s.a)",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_roundtrip(self, sql):
        assert roundtrips(sql)

    @pytest.mark.parametrize("sql", CASES)
    def test_render_deterministic(self, sql):
        cs = parse_to_clause_set(sql)
        assert render_clause_set(cs) == render_clause_set(parse_to_clause_set(sql))


class TestPaperNestedQuery:
    GOLD_STYLE = """SELECT T2.`sname` FROM frpm AS T1 INNER JOIN satscores AS T2
        ON T1.`CDSCode` = T2.`cds`
        WHERE T2.`sname` IS NOT NULL AND T1.`Charter School (Y/N)` = 1
        AND CAST(T2.`NumGE1500` AS REAL) / T2.`NumTstTakr` > (
            SELECT AVG(CAST(T4.`NumGE1500` AS REAL) / T4.`NumTstTakr`)
            FROM frpm AS T3 INNER JOIN satscores AS T4 ON T3.`CDSCode` = T4.`cds`
            WHERE T3.`Charter School (Y/N)` = 1)"""

    REORDERED = """SELECT B.`sname` FROM satscores AS B INNER JOIN frpm AS A
        ON B.`cds` = A.`CDSCode`
        WHERE A.`Charter School (Y/N)` = 1
        AND CAST(B.`NumGE1500` AS REAL) / B.`NumTstTakr` > (
            SELECT AVG(CAST(Y.`NumGE1500` AS REAL) / Y.`NumTstTakr`)
            FROM frpm AS X INNER JOIN satscores AS Y ON X.`CDSCode` = Y.`cds`
            WHERE X.`Charter School (Y/N)` = 1)
        AND B.`sname` IS NOT NULL"""

    def test_manually_reordered_equivalent(self):
        assert parse_to_clause_set(self.GOLD_STYLE) == parse_to_clause_set(self.REORDERED)

    def test_roundtrip(self):
        assert roundtrips(self.GOLD_STYLE)


from hypothesis import given, settings, strategies as st


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_to_clause_set(text)
        except UnsupportedSyntax:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="SELECT FROMabc().,*'`=<>123 \n", max_size=60))
    def test_sqlish_soup_never_crashes(self, text):
        try:
            parse_to_clause_set("SELECT " + text)
        except UnsupportedSyntax:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_order_by_check_never_raises(self, text):
        assert has_top_level_order_by(text) in (True, False)


class TestSqliteCharacterClasses:
    """Characters are read as SQLite's tokenizer reads them."""

    def test_non_ascii_name(self):
        assert exact_match("SELECT año FROM t", "SELECT año FROM t") is True

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028"])
    def test_only_ascii_whitespace_separates(self, space):
        # SQLite reads "SELECT\u00a0a" as one name, so the query is not a SELECT
        sql = f"SELECT{space}a FROM t"
        assert exact_match(sql, sql) is not True
        # after "=", the space starts a name: b is compared with a column
        assert exact_match(f"SELECT a FROM t WHERE b ={space}1",
                           "SELECT a FROM t WHERE b = 2") is False

    def test_only_ascii_digits_make_a_number(self):
        # to SQLite, ٣ is a column, not the value 3
        assert exact_match("SELECT a FROM t WHERE b = \u0663",
                           "SELECT a FROM t WHERE b = 3") is False

    def test_case_folds_in_ascii_only(self):
        assert exact_match("SELECT AñO FROM t", "SELECT año FROM t") is True
        assert exact_match("SELECT AÑO FROM t", "SELECT año FROM t") is False
        # the long s upper-cases to S, but SQLite reads "ſelect" as a name
        assert exact_match("\u017felect a FROM t", "SELECT a FROM t") is None

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT a FROM t\u00a0ORDER BY a", False),
        ("SELECT a FROM t \u2028ORDER BY a", False),
        ("SELECT a FROM t \u00e9ORDER BY a", False),
        ("SELECT a FROM t ORDER BY\u00e9 a", False),
        ("SELECT a FROM t ORDER\tBY\x0ca", True),
    ])
    def test_order_by_words(self, sql, expected):
        assert has_top_level_order_by(sql) is expected

    def test_non_ascii_names_round_trip(self):
        assert roundtrips("SELECT T1.año, count(*) FROM tabla AS T1 WHERE T1.ciudad = 'Köln' "
                          "GROUP BY T1.año ORDER BY T1.año")


class TestTermination:
    @pytest.fixture
    def deadline(self):
        """Fail a test that runs past two seconds instead of letting it hang."""
        def expire(*_):
            raise TimeoutError("no result within two seconds")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        yield
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("sql", [
        "SELECT CAST(x AS DECIMAL(10",
        "SELECT CAST(x AS DECIMAL(10, 2",
    ])
    def test_truncated_query_is_rejected(self, deadline, sql):
        with pytest.raises(UnsupportedSyntax):
            parse_to_clause_set(sql)


@st.composite
def generated_sql(draw):
    """Small random queries inside the supported grammar."""
    tables = ["t", "u"]
    cols = ["a", "b", "c"]
    table = draw(st.sampled_from(tables))
    items = draw(st.lists(st.sampled_from(cols + ["count(*)", "sum(a)"]),
                          min_size=1, max_size=3, unique=True))
    sql = "SELECT " + ", ".join(items) + f" FROM {table}"
    if draw(st.booleans()):
        other = draw(st.sampled_from(tables))
        sql += f" JOIN {other} ON {table}.a = {other}.a"
    if draw(st.booleans()):
        n = draw(st.integers(0, 99))
        op = draw(st.sampled_from(["=", ">", "<", "<>", ">=", "<="]))
        conj = draw(st.sampled_from(["", f" AND c < {n + 1}", " OR b IS NULL"]))
        sql += f" WHERE b {op} {n}{conj}"
    if draw(st.booleans()):
        sql += " GROUP BY c"
    if draw(st.booleans()):
        sql += " ORDER BY " + draw(st.sampled_from(cols)) + draw(
            st.sampled_from(["", " ASC", " DESC"]))
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(1, 50))}"
    return sql


class TestGeneratedIdempotence:
    @settings(max_examples=300, deadline=None)
    @given(generated_sql())
    def test_roundtrip(self, sql):
        cs = parse_to_clause_set(sql)
        rendered = render_sql(cs)
        assert parse_to_clause_set(rendered) == cs, (sql, rendered)


# Strategies are built once: building one per draw costs more than the draw.
_OPERATORS = st.sampled_from([
    "OR", "AND", "=", "==", "<>", "!=", "<", "<=", ">", ">=", "IS", "IS NOT",
    "LIKE", "NOT LIKE", "+", "-", "*", "/", "%", "||"])
_ATOMS = st.sampled_from(
    ["a", "b", "t.a", "x.b", "s.a", "n", "7", "2.5", "'s'", "NULL", "TRUE", "`c d`"])
_FORMS = st.integers(-9, 14)
_NOT = st.sampled_from(["", "NOT "])
_SIGN = st.sampled_from(["-", "+"])
_CALL = st.sampled_from(["max({})", "count(DISTINCT {})", "count(*)"])
_ITEM = st.sampled_from(["*", "{}", "{} AS n"])
_SOURCE = st.sampled_from(["t", "t AS x", "u x", "t, u AS x", "(SELECT a, b FROM u) AS s"])
_SET_OP = st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"])


@st.composite
def _grammar_expr(draw, depth):
    form = draw(_FORMS) if depth else -1
    if form < 0:
        return draw(_ATOMS)
    e = lambda: draw(_GRAMMAR_EXPRS[depth - 1])  # noqa: E731
    query = lambda: f"SELECT {e()} FROM u WHERE {e()}"  # noqa: E731
    if form <= 3:
        text = f"{e()} {draw(_OPERATORS)} {e()}"
    elif form == 4:
        text = f"NOT {e()}"
    elif form == 5:
        text = f"{draw(_SIGN)} {e()}"
    elif form == 6:
        text = f"{e()} IS {draw(_NOT)}NULL"
    elif form == 7:
        text = f"{e()} {draw(_NOT)}IN ({e()}, {e()})"
    elif form == 8:
        text = f"{e()} {draw(_NOT)}IN ({query()})"
    elif form == 9:
        text = f"{e()} {draw(_NOT)}BETWEEN {e()} AND {e()}"
    elif form == 10:
        operand = f"{e()} " if draw(st.booleans()) else ""
        default = f" ELSE {e()}" if draw(st.booleans()) else ""
        text = f"CASE {operand}WHEN {e()} THEN {e()}{default} END"
    elif form == 11:
        text = f"CAST({e()} AS INTEGER)"
    elif form == 12:
        text = f"EXISTS ({query()})"
    elif form == 13:
        text = f"({query()})"
    else:
        text = draw(_CALL).format(e())
    return f"({text})" if draw(st.booleans()) else text


# Expressions built from every operator and form of the EM grammar, by depth.
# Operands are parenthesized at random, so some draws chain comparisons or put
# NOT under an operator, and fall outside the grammar.
_GRAMMAR_EXPRS = [_grammar_expr(depth) for depth in range(3)]


@st.composite
def grammar_query(draw):
    """One or two cores over tables t and u, aliases, and a FROM subquery."""
    e = lambda: draw(_GRAMMAR_EXPRS[2])  # noqa: E731

    def core():
        items = [draw(_ITEM).format(e()) for _ in range(draw(st.integers(1, 2)))]
        sql = (f"SELECT {draw(st.sampled_from(['', 'DISTINCT ']))}{', '.join(items)}"
               f" FROM {draw(_SOURCE)}")
        if draw(st.booleans()):
            sql += f" JOIN u ON {e()}"
        if draw(st.booleans()):
            sql += f" WHERE {e()}"
        if draw(st.booleans()):
            sql += f" GROUP BY {e()}, b"
            if draw(st.booleans()):
                sql += f" HAVING {e()}"
        return sql

    sql = core()
    if draw(st.booleans()):
        sql += f" {draw(_SET_OP)} {core()}"
    if draw(st.booleans()):
        sql += f" ORDER BY {e()}{draw(st.sampled_from(['', ' ASC', ' DESC']))}, 1"
    if draw(st.booleans()):
        sql += " LIMIT 3" + draw(st.sampled_from(["", " OFFSET 2", ", 4"]))
    return sql


class TestGrammarRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(grammar_query())
    def test_canonical_text_parses_back(self, sql):
        try:
            cs = parse_to_clause_set(sql)
        except UnsupportedSyntax:
            return
        rendered = render_sql(cs)
        assert parse_to_clause_set(rendered) == cs, (sql, rendered)
