"""Seeded synthetic BIRD-layout datasets for the benchmark, with Python-computed answers.

Two families of data are generated, each cached by seed:

* ``retail``: one database (``retail``) with a fact table of 1,000,000 sales
  (500 per day over 2,000 days) and three dimension tables. It serves the
  ``huge_db`` items (range aggregates and joins) and the ``bulk_rows`` items
  (listings of 10,000 to 100,000 rows).
* ``wide``: twelve databases of 40 tables with 13 or 14 columns and 30 rows
  each, plus description CSVs, serving the ``wide_schema`` items.

For every item the generator writes the gold SQL, the scripted model replies
that lead the pipeline to its predicted SQL, and the answers of both queries,
computed in Python from the rows it inserted (never by running the SQL).
Structure (item counts, class shares, row counts) does not depend on the seed;
only the values and the chosen ranges do.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import os
import random
import shutil
import sqlite3
from pathlib import Path

from oracle import canonical, top_level_order_by, verdict

GENERATOR_VERSION = "6"
KEEP_SEEDS = 10
DIGEST_MIN_ROWS = 1000

# -- retail family ---------------------------------------------------------

DAYS = 2000
ROWS_PER_DAY = 500
BASE_DATE = datetime.date(2015, 1, 1)
N_STORES = 50
N_PRODUCTS = 400
N_CUSTOMERS = 20000
CHANNELS = ("online", "phone", "store")
REGIONS = ("East", "North", "South", "West")
CATEGORIES = ("Audio", "Books", "Garden", "Grocery", "Kitchen", "Outdoor", "Toys", "Video")
SEGMENTS = ("Consumer", "Corporate", "Education", "Government", "Small Business")
COUNTRIES = ("Canada", "France", "Germany", "Japan", "Mexico", "Spain")
CITIES = ("Aldport", "Brimley", "Caston", "Dunmore", "Eastwick", "Fairholm", "Glenrock",
          "Harwell", "Ironvale", "Jasper", "Kingsley", "Lowell")

# Seed-independent rows of the flagship store (store_id 0) on a day before the
# regular data. They sum to a round total plus one zero-quantity adjustment
# line of a few cents, so a query that drops the adjustment line returns a
# different integer above 10^7 that agrees in its first seven digits.
FLAGSHIP_DAYS = (("2014-12-31", 20_000_000, 3),)
FLAGSHIP_LINES = 40

RETAIL_TABLES = {
    "stores": [("store_id", "INTEGER PRIMARY KEY", "store id", "unique id of the store"),
               ("store_name", "TEXT", "store name", "name of the store"),
               ("city", "TEXT", "city", "city where the store is located"),
               ("region", "TEXT", "region", "sales region of the store")],
    "products": [("product_id", "INTEGER PRIMARY KEY", "product id", "unique id of the product"),
                 ("product_name", "TEXT", "product name", "name of the product"),
                 ("category", "TEXT", "category", "product category"),
                 ("unit_price_cents", "INTEGER", "unit price", "list price of one unit in cents")],
    "customers": [("customer_id", "INTEGER PRIMARY KEY", "customer id", "unique id of the customer"),
                  ("customer_name", "TEXT", "customer name", "full name of the customer"),
                  ("segment", "TEXT", "segment", "market segment of the customer"),
                  ("country", "TEXT", "country", "country of the customer")],
    "sales": [("sale_id", "INTEGER PRIMARY KEY", "sale id", "unique id of the sale line"),
              ("sale_date", "TEXT", "sale date", "date of the sale, YYYY-MM-DD"),
              ("store_id", "INTEGER REFERENCES stores(store_id)", "store id", "store that made the sale"),
              ("product_id", "INTEGER REFERENCES products(product_id)", "product id", "product sold"),
              ("customer_id", "INTEGER REFERENCES customers(customer_id)", "customer id", "buying customer"),
              ("channel", "TEXT", "channel", "sales channel: online, phone or store"),
              ("quantity", "INTEGER", "quantity", "units sold; 0 marks an adjustment line"),
              ("amount_cents", "INTEGER", "amount", "amount charged in cents")],
}
# Sale row layout, as inserted.
SALE_ID, SALE_DATE, STORE, PRODUCT, CUSTOMER, CHANNEL, QUANTITY, AMOUNT = range(8)


def day_str(day: int) -> str:
    return (BASE_DATE + datetime.timedelta(days=day)).isoformat()


class Query:
    """One SQL statement over a day range of ``sales`` with its Python meaning.

    ``keep`` filters sale rows, ``project`` maps a kept row to the values the
    finaliser needs and ``finish`` turns the list of projections into result
    rows. ``rows`` holds the computed answer once the range has been fed.
    """

    def __init__(self, sql, first_day, last_day, keep, project, finish):
        self.sql = sql
        self.first_day = first_day
        self.last_day = last_day
        self.keep = keep
        self.project = project
        self.finish = finish
        self.collected = []
        self.rows = None

    def feed(self, chunk):
        keep, project, out = self.keep, self.project, self.collected
        for row in chunk:
            if keep(row):
                out.append(project(row))

    def close(self):
        self.rows = self.finish(self.collected)
        self.collected = None


def _all(_row):
    return True


def _sum_finish(values):
    return [(sum(values),)]


def _count_finish(values):
    return [(len(values),)]


def _avg_finish(values):
    return [(sum(values) / len(values),)]


def _distinct_finish(values):
    return [(len(set(values)),)]


def _group_sum_finish(pairs):
    totals = {}
    for key, value in pairs:
        totals[key] = totals.get(key, 0) + value
    return sorted(totals.items())


def _identity_finish(values):
    return [(v,) for v in values]


def _desc_finish(values):
    return [(v,) for v in sorted(values, reverse=True)]


def _between(a, b):
    return f"sale_date BETWEEN '{day_str(a)}' AND '{day_str(b)}'"


def _t1_between(a, b):
    return f"T1.sale_date BETWEEN '{day_str(a)}' AND '{day_str(b)}'"


class RetailDims:
    def __init__(self, rng: random.Random):
        self.store_region = {0: "North"}
        self.stores = [(0, "Flagship Pier", "Aldport", "North")]
        for sid in range(1, N_STORES + 1):
            region = REGIONS[rng.randrange(len(REGIONS))]
            self.store_region[sid] = region
            self.stores.append((sid, f"Store {sid:02d}", CITIES[rng.randrange(len(CITIES))], region))
        self.prices = {}
        self.product_category = {}
        self.products = []
        for pid in range(1, N_PRODUCTS + 1):
            category = CATEGORIES[rng.randrange(len(CATEGORIES))]
            price = rng.randrange(100, 20000)
            self.prices[pid] = price
            self.product_category[pid] = category
            self.products.append((pid, f"{category} item {pid:03d}", category, price))
        self.customer_segment = {}
        self.customers = []
        for cid in range(1, N_CUSTOMERS + 1):
            segment = SEGMENTS[rng.randrange(len(SEGMENTS))]
            self.customer_segment[cid] = segment
            self.customers.append((cid, f"Customer {cid:05d}", segment,
                                   COUNTRIES[rng.randrange(len(COUNTRIES))]))


def _huge_templates(dims: RetailDims):
    """Aggregate templates as (name, day span, difficulty, build).

    ``build(first, last, rng)`` returns the question and evidence (with
    ``{A}``/``{B}`` date slots), the gold Query, and two faulty variants (a
    schema error and a syntax error; ``{R}``/``{T1R}`` stand for the range
    predicate). The spans differ so that every template costs SQLite a similar
    3 to 5 ms.
    """
    def total(a, b, rng):
        return ("What was the total sales amount in cents from {A} to {B}?",
                "total sales amount refers to SUM(amount_cents); from {A} to {B} refers to "
                "sale_date BETWEEN '{A}' AND '{B}'",
                Query(f"SELECT SUM(amount_cents) FROM sales WHERE {_between(a, b)}",
                      a, b, _all, lambda r: r[AMOUNT], _sum_finish),
                ("SELECT SUM(amount) FROM sales WHERE {R}",
                 "SELECT SUM(amount_cents FROM sales WHERE {R}"))

    def by_channel(a, b, rng):
        return ("For each sales channel, what was the total amount in cents between {A} and {B}?",
                "total amount refers to SUM(amount_cents); between {A} and {B} refers to "
                "sale_date BETWEEN '{A}' AND '{B}'; list channels alphabetically",
                Query(f"SELECT channel, SUM(amount_cents) FROM sales WHERE {_between(a, b)} "
                      f"GROUP BY channel ORDER BY channel",
                      a, b, _all, lambda r: (r[CHANNEL], r[AMOUNT]), _group_sum_finish),
                ("SELECT channel, SUM(amount) FROM sales WHERE {R} GROUP BY channel ORDER BY channel",
                 "SELECT channel, SUM(amount_cents) FROM sales WHERE {R} GROUP channel ORDER BY channel"))

    def region_count(a, b, rng):
        region = REGIONS[rng.randrange(len(REGIONS))]
        join = "FROM sales AS T1 INNER JOIN stores AS T2 ON T1.store_id = T2.store_id"
        return (f"How many sales did stores in the {region} region make between {{A}} and {{B}}?",
                f"{region} region refers to region = '{region}'; between {{A}} and {{B}} refers to "
                f"sale_date BETWEEN '{{A}}' AND '{{B}}'",
                Query(f"SELECT COUNT(*) {join} WHERE T2.region = '{region}' AND {_t1_between(a, b)}",
                      a, b, lambda r: dims.store_region[r[STORE]] == region, lambda r: 1,
                      _count_finish),
                (f"SELECT COUNT(*) {join} WHERE T2.area = '{region}' AND {{T1R}}",
                 f"SELECT COUNT(*) {join} WHERE T2.region = '{region}' AND AND {{T1R}}"))

    def category_units(a, b, rng):
        join = "FROM sales AS T1 INNER JOIN products AS T2 ON T1.product_id = T2.product_id"
        return ("How many units of each product category were sold between {A} and {B}?",
                "units refers to SUM(quantity); between {A} and {B} refers to "
                "sale_date BETWEEN '{A}' AND '{B}'; list categories alphabetically",
                Query(f"SELECT T2.category, SUM(T1.quantity) {join} WHERE {_t1_between(a, b)} "
                      f"GROUP BY T2.category ORDER BY T2.category",
                      a, b, _all, lambda r: (dims.product_category[r[PRODUCT]], r[QUANTITY]),
                      _group_sum_finish),
                (f"SELECT T2.category, SUM(T1.qty) {join} WHERE {{T1R}} "
                 f"GROUP BY T2.category ORDER BY T2.category",
                 f"SELECT T2.category, SUM(T1.quantity) {join} WHERE {{T1R}} "
                 f"GROUP BY T2.category ORDER T2.category"))

    def segment_avg(a, b, rng):
        segment = SEGMENTS[rng.randrange(len(SEGMENTS))]
        return (f"What was the average quantity per sale bought by {segment} customers "
                f"between {{A}} and {{B}}?",
                f"average quantity refers to AVG(quantity); {segment} customers refers to "
                f"segment = '{segment}'; between {{A}} and {{B}} refers to sale_date BETWEEN "
                f"'{{A}}' AND '{{B}}'",
                Query(f"SELECT AVG(T1.quantity) FROM sales AS T1 INNER JOIN customers AS T2 "
                      f"ON T1.customer_id = T2.customer_id WHERE T2.segment = '{segment}' "
                      f"AND {_t1_between(a, b)}",
                      a, b, lambda r: dims.customer_segment[r[CUSTOMER]] == segment,
                      lambda r: r[QUANTITY], _avg_finish),
                (f"SELECT AVG(T1.quantity) FROM sales AS T1 INNER JOIN customer AS T2 ON "
                 f"T1.customer_id = T2.customer_id WHERE T2.segment = '{segment}' AND {{T1R}}",
                 f"SELECT AVG(T1.quantity FROM sales AS T1 INNER JOIN customers AS T2 ON "
                 f"T1.customer_id = T2.customer_id WHERE T2.segment = '{segment}' AND {{T1R}}"))

    def distinct_customers(a, b, rng):
        channel = CHANNELS[rng.randrange(len(CHANNELS))]
        return (f"How many distinct customers bought through the {channel} channel "
                f"between {{A}} and {{B}}?",
                f"{channel} channel refers to channel = '{channel}'; between {{A}} and {{B}} "
                f"refers to sale_date BETWEEN '{{A}}' AND '{{B}}'",
                Query(f"SELECT COUNT(DISTINCT customer_id) FROM sales WHERE {_between(a, b)} "
                      f"AND channel = '{channel}'",
                      a, b, lambda r: r[CHANNEL] == channel, lambda r: r[CUSTOMER],
                      _distinct_finish),
                (f"SELECT COUNT(DISTINCT customer) FROM sales WHERE {{R}} AND channel = '{channel}'",
                 f"SELECT COUNT(DISTINCT customer_id) FROM sales WHERE {{R}} channel = '{channel}'"))

    return [
        ("total", 28, "simple", total),
        ("by_channel", 14, "simple", by_channel),
        ("region_count", 21, "moderate", region_count),
        ("category_units", 10, "moderate", category_units),
        ("segment_avg", 12, "challenging", segment_avg),
        ("distinct_customers", 17, "challenging", distinct_customers),
    ]


# huge_db: 50 items per round. Class shares put p50 inside the first-try
# class and p90 inside the refiner class (the costliest 20%).
HUGE_CLASSES = ["first_try"] * 33 + ["refiner"] * 10 + ["wrong"] * 6 + ["fault"] * 1
# bulk_rows: 50 items per round; 10,000 rows each except one 100,000-row listing.
BULK_CLASSES = ["first_try"] * 32 + ["refiner"] * 10 + ["wrong"] * 7 + ["large"] * 1
BULK_SPAN = 10_000 // ROWS_PER_DAY
BULK_LARGE_SPAN = 100_000 // ROWS_PER_DAY


def _fixed_order(classes):
    order = list(classes)
    random.Random(0).shuffle(order)
    return order


def _decomposer_reply(question: str, sql: str) -> str:
    return (f"Sub question 1: {question}\n"
            f"SQL\n```sql\n{sql}\n```\n\nQuestion Solved.")


def _refiner_reply(sql: str) -> str:
    return f"The previous query failed; corrected query:\n```sql\n{sql}\n```"


class ItemSet:
    """Items, scripted replies and expected outcomes of one workload."""

    def __init__(self):
        self.items = []
        self.specs = []

    def add(self, *, qid, db_id, question, evidence, difficulty, gold, preds, first_sql=None,
            expect_ex=True, fault=False, selector=None):
        """Register one item.

        ``preds`` are candidate predictions; the first whose answer has the
        expected EX verdict becomes the model's final SQL. ``first_sql`` is a
        faulty statement the decomposer emits before the refiner's fix.
        """
        self.items.append({"question_id": qid, "db_id": db_id, "question": question,
                           "evidence": evidence, "SQL": gold.sql, "difficulty": difficulty})
        self.specs.append((str(qid), question, gold, preds, first_sql, expect_ex, fault, selector))

    def fact_queries(self):
        """Queries still to be fed with generated fact rows (each distinct SQL once)."""
        seen = {}
        for _qid, _question, gold, preds, *_rest in self.specs:
            for q in (gold, *preds):
                if q.rows is None:
                    seen.setdefault(id(q), q)
        return list(seen.values())

    def finish(self, out_dir: Path, name: str, meta: dict):
        replies, expect = [], {}
        for qid, question, gold, preds, first_sql, expect_ex, fault, selector in self.specs:
            ordered = top_level_order_by(gold.sql)
            pred = next((p for p in preds if verdict(p.rows, gold.rows, ordered) == expect_ex), None)
            if pred is None:
                raise RuntimeError(f"item {qid}: no candidate prediction has EX={expect_ex}")
            if not ordered and verdict(sorted(set(pred.rows)), sorted(set(gold.rows)),
                                       False) != expect_ex:
                raise RuntimeError(f"item {qid}: set and multiset verdicts differ")
            if not gold.rows or not pred.rows:
                raise RuntimeError(f"item {qid}: empty answer")
            script = [first_sql, pred.sql] if first_sql else [pred.sql]
            if selector is not None:
                replies.append({"agent": "selector", "question": question, "reply": selector})
            replies.append({"agent": "decomposer", "question": question,
                            "reply": _decomposer_reply(question, script[0])})
            for old, new in zip(script, script[1:]):
                replies.append({"agent": "refiner", "question": question, "old_sql": old,
                                "reply": _refiner_reply(new)})
            expect[qid] = {"gold": _stored(gold.rows, ordered), "pred": _stored(pred.rows, ordered),
                           "ordered": ordered, "final_sql": pred.sql,
                           "calls": len(script) + (selector is not None), "fault": fault,
                           "selector": selector is not None, "ex": expect_ex}
        questions = [i["question"] for i in self.items]
        if len(set(questions)) != len(questions):
            raise RuntimeError(f"{name}: duplicate question text")
        _write_json(out_dir / f"{name}.items.json", self.items)
        _write_json(out_dir / f"{name}.replies.json", replies)
        _write_json(out_dir / f"{name}.expect.json", {"items": expect, **meta})


def _stored(rows, ordered: bool):
    """Small answers as rows; large ones as a count plus digest of the canonical form."""
    if len(rows) >= DIGEST_MIN_ROWS:
        return {"count": len(rows), "digest": digest(rows, ordered)}
    return {"rows": [list(r) for r in rows]}


def digest(rows, ordered: bool) -> str:
    return hashlib.sha256(repr(canonical(rows, ordered)).encode()).hexdigest()


def _write_json(path: Path, data):
    path.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")


def _write_descriptions(db_dir: Path, table: str, columns):
    desc_dir = db_dir / "database_description"
    desc_dir.mkdir(parents=True, exist_ok=True)
    with open(desc_dir / f"{table}.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["original_column_name", "column_name", "column_description",
                         "data_format", "value_description"])
        for name, decl, friendly, description in columns:
            fmt = "integer" if "INT" in decl else "real" if "REAL" in decl else "text"
            writer.writerow([name, friendly, description, fmt, ""])


def _create_table(conn, table, columns):
    cols = ", ".join(f"{name} {decl}" for name, decl, _f, _d in columns)
    conn.execute(f"CREATE TABLE {table} ({cols})")


def generate_retail(seed: int, out_dir: Path) -> None:
    rng = random.Random(seed)
    dims = RetailDims(rng)
    db_dir = out_dir / "dev_databases" / "retail"
    db_dir.mkdir(parents=True)
    conn = sqlite3.connect(db_dir / "retail.sqlite")
    conn.execute("PRAGMA journal_mode=OFF")
    conn.execute("PRAGMA synchronous=OFF")
    for table, columns in RETAIL_TABLES.items():
        _create_table(conn, table, columns)
        _write_descriptions(db_dir, table, columns)
    conn.executemany("INSERT INTO stores VALUES (?,?,?,?)", dims.stores)
    conn.executemany("INSERT INTO products VALUES (?,?,?,?)", dims.products)
    conn.executemany("INSERT INTO customers VALUES (?,?,?,?)", dims.customers)

    flagship = _flagship_rows()
    conn.executemany("INSERT INTO sales VALUES (?,?,?,?,?,?,?,?)", flagship)
    faults = _fault_queries()
    for q in (q for _date, gold, pred in faults for q in (gold, pred)):
        q.feed(flagship)
        q.close()

    huge = _huge_items(rng, dims, faults)
    bulk = _bulk_items(rng)
    queries = [q for items in (huge, bulk) for q in items.fact_queries()]
    by_day = [[] for _ in range(DAYS)]
    closing = [[] for _ in range(DAYS)]
    for q in queries:
        for day in range(q.first_day, q.last_day + 1):
            by_day[day].append(q)
        closing[q.last_day].append(q)

    r = rng.random
    prices = dims.prices
    sale_id = len(flagship)
    for day in range(DAYS):
        date = day_str(day)
        chunk = []
        for _ in range(ROWS_PER_DAY):
            sale_id += 1
            product = 1 + int(r() * N_PRODUCTS)
            quantity = 1 + int(r() * 5)
            chunk.append((sale_id, date, 1 + int(r() * N_STORES), product,
                          1 + int(r() * N_CUSTOMERS), CHANNELS[int(r() * 3)],
                          quantity, quantity * prices[product]))
        conn.executemany("INSERT INTO sales VALUES (?,?,?,?,?,?,?,?)", chunk)
        for q in by_day[day]:
            q.feed(chunk)
        for q in closing[day]:
            q.close()
    conn.execute("CREATE INDEX sales_by_date ON sales(sale_date)")
    conn.commit()
    conn.close()

    meta = {"databases": {"retail": _db_meta(RETAIL_TABLES)}}
    huge.finish(out_dir, "huge_db", meta)
    bulk.finish(out_dir, "bulk_rows", meta)


def _flagship_rows():
    rows, sale_id = [], 0
    for date, total, adjustment in FLAGSHIP_DAYS:
        per_line = total // (FLAGSHIP_LINES - 1)
        amounts = [per_line] * (FLAGSHIP_LINES - 2) + [total - per_line * (FLAGSHIP_LINES - 2)]
        for k, amount in enumerate(amounts):
            sale_id += 1
            rows.append((sale_id, date, 0, 1 + k, 1 + k, "store", 1 + k % 5, amount))
        sale_id += 1
        rows.append((sale_id, date, 0, 1, 1, "store", 0, adjustment))
    return rows


def _fault_queries():
    """(gold, pred) for each flagship day: the prediction drops the adjustment line."""
    pairs = []
    for date, _total, _adjustment in FLAGSHIP_DAYS:
        where = f"store_id = 0 AND sale_date = '{date}'"
        gold = Query(f"SELECT SUM(amount_cents) FROM sales WHERE {where}", -1, -1,
                     lambda r, d=date: r[STORE] == 0 and r[SALE_DATE] == d,
                     lambda r: r[AMOUNT], _sum_finish)
        pred = Query(f"SELECT SUM(amount_cents) FROM sales WHERE {where} AND quantity > 0", -1, -1,
                     lambda r, d=date: r[STORE] == 0 and r[SALE_DATE] == d and r[QUANTITY] > 0,
                     lambda r: r[AMOUNT], _sum_finish)
        pairs.append((date, gold, pred))
    return pairs


def _widen(gold: Query, extra_days: int) -> Query:
    """``gold`` over a range ``extra_days`` longer: the wrong prediction of an item."""
    last = gold.last_day + extra_days
    sql = gold.sql.replace(_between(gold.first_day, gold.last_day), _between(gold.first_day, last))
    return Query(sql, gold.first_day, last, gold.keep, gold.project, gold.finish)


def _huge_items(rng: random.Random, dims: RetailDims, faults) -> "ItemSet":
    items = ItemSet()
    templates = _huge_templates(dims)
    faults = iter(faults)
    asked = set()
    for n, cls in enumerate(_fixed_order(HUGE_CLASSES)):
        qid = 1000 + n
        if cls == "fault":
            date, gold, pred = next(faults)
            items.add(qid=qid, db_id="retail",
                      question=f"What was the total amount in cents taken by the Flagship Pier "
                               f"store on {date}?",
                      evidence="Flagship Pier refers to store_id = 0; total amount refers to "
                               f"SUM(amount_cents); on {date} refers to sale_date = '{date}'",
                      difficulty="simple", gold=gold, preds=[pred], expect_ex=False, fault=True)
            continue
        _name, span, difficulty, build = templates[n % len(templates)]
        while True:
            first = rng.randrange(0, DAYS - span - 8)
            last = first + span - 1
            question, evidence, gold, broken = build(first, last, rng)
            fill = {"A": day_str(first), "B": day_str(last)}
            if question.format(**fill) not in asked:
                break
        asked.add(question.format(**fill))
        first_sql = None
        if cls == "refiner":
            first_sql = (broken[(n // len(templates)) % 2]
                         .replace("{R}", _between(first, last))
                         .replace("{T1R}", _t1_between(first, last)))
        # A wrong prediction reads one to three days too many; the first
        # candidate whose answer differs from gold is used.
        preds = [_widen(gold, k) for k in (1, 2, 3)] if cls == "wrong" else [gold]
        items.add(qid=qid, db_id="retail", question=question.format(**fill),
                  evidence=evidence.format(**fill), difficulty=difficulty, gold=gold,
                  preds=preds, first_sql=first_sql, expect_ex=cls != "wrong")
    return items


def _bulk_items(rng: random.Random) -> "ItemSet":
    items = ItemSet()
    asked = set()
    templates = [
        ("List the ids of all sales made from {A} to {B}.",
         "from {A} to {B} refers to sale_date BETWEEN '{A}' AND '{B}'",
         "SELECT sale_id FROM sales WHERE {R}", SALE_ID, _identity_finish),
        ("List the ids of all sales made from {A} to {B}, newest first.",
         "from {A} to {B} refers to sale_date BETWEEN '{A}' AND '{B}'; newest first refers "
         "to ORDER BY sale_id DESC",
         "SELECT sale_id FROM sales WHERE {R} ORDER BY sale_id DESC", SALE_ID, _desc_finish),
        ("List the customer id of every sale line between {A} and {B}.",
         "between {A} and {B} refers to sale_date BETWEEN '{A}' AND '{B}'",
         "SELECT customer_id FROM sales WHERE {R}", CUSTOMER, _identity_finish),
        ("List the amount in cents of every sale line between {A} and {B}.",
         "amount refers to amount_cents; between {A} and {B} refers to sale_date BETWEEN "
         "'{A}' AND '{B}'",
         "SELECT amount_cents FROM sales WHERE {R}", AMOUNT, _identity_finish),
    ]
    for n, cls in enumerate(_fixed_order(BULK_CLASSES)):
        # Amounts repeat (400 products x 5 quantities), so a wrong listing of
        # them can equal gold as a set; wrong items list ids instead.
        pool = templates[:1] if cls == "large" else templates[:3] if cls == "wrong" else templates
        question, evidence, sql, column, finish = pool[n % len(pool)]
        span = BULK_LARGE_SPAN if cls == "large" else BULK_SPAN
        first = rng.randrange(0, DAYS - span - 4)
        while (question, first) in asked:
            first = rng.randrange(0, DAYS - span - 4)
        asked.add((question, first))
        last = first + span - 1
        gold = Query(sql.replace("{R}", _between(first, last)), first, last, _all,
                     lambda r, c=column: r[c], finish)
        first_sql = None
        if cls == "refiner":
            # Swapped bounds: an empty result that the refiner corrects.
            first_sql = gold.sql.replace(
                _between(first, last),
                f"sale_date BETWEEN '{day_str(last)}' AND '{day_str(first)}'")
        fill = {"A": day_str(first), "B": day_str(last)}
        items.add(qid=2000 + n, db_id="retail", question=question.format(**fill),
                  evidence=evidence.format(**fill),
                  difficulty="moderate" if cls == "large" else "simple", gold=gold,
                  preds=[_widen(gold, k) for k in (1, 2, 3)] if cls == "wrong" else [gold],
                  first_sql=first_sql, expect_ex=cls != "wrong")
    return items


# -- wide family -----------------------------------------------------------

WIDE_DBS = ("airfield", "archive", "brewery", "clinic", "foundry", "harbor", "museum",
            "observatory", "orchard", "quarry", "transit", "vineyard")
WIDE_NOUNS = ("asset", "batch", "berth", "cargo", "clerk", "crew", "depot", "dock", "engine",
              "fleet", "gate", "hangar", "invoice", "journal", "kiosk", "ledger", "lot",
              "manifest", "meter", "notice", "rota", "parcel", "permit", "pier", "pilot",
              "quota", "route", "sensor", "shift", "site", "slot", "tally", "tariff", "ticket",
              "tool", "tower", "trip", "unit", "vendor", "voyage")
WIDE_ROWS = 30
STATUSES = ("active", "closed", "pending", "retired")
GRADES = ("A", "B", "C", "D", "E")
ZONES = ("central", "coastal", "eastern", "highland", "northern", "southern")
# Per database: 3 exact, 1 EX-equal rewrite (not EM-equal), 1 wrong. The first
# question on each database pays its cold introspection; at five questions per
# database that class is 20% of all, so p90 lands inside it and p50 inside the
# warm questions, instead of on the steep edge between the two.
WIDE_CLASSES = ["exact"] * 3 + ["rewrite"] * 1 + ["wrong"] * 1


def _wide_columns(db_id: str, noun: str, index: int):
    parent = WIDE_NOUNS[index - 1] if index % 3 else None
    cols = [(f"{noun}_id", "INTEGER PRIMARY KEY", f"{noun} id", f"unique id of the {noun}"),
            ("label", "TEXT", "label", f"display label of the {noun}"),
            ("status", "TEXT", "status", f"life-cycle status of the {noun}"),
            ("grade", "TEXT", "grade", f"quality grade assigned to the {noun}"),
            ("zone", "TEXT", "zone", f"{db_id} zone where the {noun} is kept"),
            ("opened_on", "TEXT", "opened on", f"date the {noun} record was opened"),
            ("owner_ref", f"INTEGER REFERENCES {parent}({parent}_id)" if parent else "INTEGER",
             "owner reference", f"id of the owning {parent or 'record'}")]
    for k in range(1, 4):
        cols.append((f"m{k}", "INTEGER", f"measure {k}", f"{noun} count measure {k}"))
    for k in range(4, 7):
        cols.append((f"m{k}", "REAL", f"measure {k}", f"{noun} ratio measure {k}"))
    if index % 2:
        cols.append(("notes", "TEXT", "notes", f"free-text remark on the {noun}"))
    return cols, parent


def _db_meta(tables):
    return {t: {"columns": [c[0] for c in cols],
                "primary_keys": [c[0] for c in cols if "PRIMARY KEY" in c[1]]}
            for t, cols in tables.items()}


class _Rows:
    """Python stand-in for a finished query over a small table."""

    def __init__(self, sql, rows):
        self.sql = sql
        self.rows = rows


def generate_wide(seed: int, out_dir: Path) -> None:
    rng = random.Random(seed)
    items = ItemSet()
    meta = {}
    qid = 3000
    for db_id in WIDE_DBS:
        db_dir = out_dir / "dev_databases" / db_id
        db_dir.mkdir(parents=True)
        conn = sqlite3.connect(db_dir / f"{db_id}.sqlite")
        conn.execute("PRAGMA journal_mode=OFF")
        tables, data, parents = {}, {}, {}
        for index, noun in enumerate(WIDE_NOUNS):
            cols, parent = _wide_columns(db_id, noun, index)
            tables[noun] = cols
            parents[noun] = parent
            _create_table(conn, noun, cols)
            _write_descriptions(db_dir, noun, cols)
            rows = []
            for i in range(1, WIDE_ROWS + 1):
                row = [i, f"{noun.title()} {rng.randrange(1000, 10000)}-{i}",
                       STATUSES[rng.randrange(len(STATUSES))], GRADES[rng.randrange(len(GRADES))],
                       ZONES[rng.randrange(len(ZONES))],
                       f"20{rng.randrange(10, 24)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
                       rng.randrange(1, WIDE_ROWS + 1)]
                row += [rng.randrange(0, 1000) for _ in range(3)]
                row += [round(rng.random() * 100, 2) for _ in range(3)]
                if len(cols) == 14:
                    row.append(f"remark {rng.randrange(100)}")
                rows.append(tuple(row))
            conn.executemany(f"INSERT INTO {noun} VALUES ({','.join('?' * len(cols))})", rows)
            data[noun] = rows
        conn.commit()
        conn.close()
        meta[db_id] = _db_meta(tables)
        asked = set()
        for k, cls in enumerate(_fixed_order(WIDE_CLASSES)):
            item = _wide_item(rng, qid, db_id, k, cls, tables, data, parents)
            while item["question"] in asked:
                item = _wide_item(rng, qid, db_id, k, cls, tables, data, parents)
            asked.add(item["question"])
            items.add(**item)
            qid += 1
    items.finish(out_dir, "wide_schema", {"databases": meta})


def _wide_item(rng, qid, db_id, k, cls, tables, data, parents):
    """One cheap single-table or join question; ``cls`` picks the prediction.

    ``exact`` repeats the gold SQL, ``rewrite`` is an equivalent query that
    clause-set EM does not equate, and ``wrong`` returns a different answer.
    """
    kind = k % 4
    col = {noun: {c[0]: i for i, c in enumerate(cols)} for noun, cols in tables.items()}
    if kind == 0:
        noun = rng.choice(WIDE_NOUNS)
        rows, c = data[noun], col[noun]
        values = sorted({r[c["m3"]] for r in rows})
        x = values[rng.randrange(3, len(values) - 3)]
        nxt = values[values.index(x) + 1]

        def count(t):
            return [(sum(1 for r in rows if r[c["m3"]] > t),)]
        question = f"How many {noun} records in {db_id} have measure 3 above {x}?"
        evidence = f"measure 3 refers to m3; above {x} refers to m3 > {x}"
        gold = _Rows(f"SELECT COUNT(*) FROM {noun} WHERE m3 > {x}", count(x))
        rewrite = _Rows(f"SELECT COUNT({noun}_id) FROM {noun} WHERE m3 >= {x + 1}", count(x))
        wrong = _Rows(f"SELECT COUNT(*) FROM {noun} WHERE m3 > {nxt}", count(nxt))
        relevant, used = [noun], ["m3"]
    elif kind == 1:
        noun = rng.choice(WIDE_NOUNS)
        rows, c = data[noun], col[noun]

        def labels(s):
            return [(r[c["label"]],) for r in rows if r[c["status"]] == s]
        present = [s for s in STATUSES if labels(s)]
        status = present[rng.randrange(len(present))]
        other = next(s for s in present if s != status)
        question = f"Which {noun} labels in {db_id} have status {status}?"
        evidence = f"status {status} refers to status = '{status}'"
        gold = _Rows(f"SELECT label FROM {noun} WHERE status = '{status}'", labels(status))
        rewrite = _Rows(f"SELECT T1.label FROM {noun} AS T1 WHERE T1.status = '{status}'",
                        labels(status))
        wrong = _Rows(f"SELECT label FROM {noun} WHERE status = '{other}'", labels(other))
        relevant, used = [noun], ["label", "status"]
    elif kind == 2:
        while True:
            noun = rng.choice([n for n in WIDE_NOUNS if parents[n]])
            parent = parents[noun]
            rows, c, pc = data[noun], col[noun], col[parent]
            zone_of = {r[0]: r[pc["zone"]] for r in data[parent]}

            def owned(z):
                return [(r[c["label"]],) for r in rows if zone_of[r[c["owner_ref"]]] == z]
            zones = [z for z in ZONES if owned(z)]
            if len(zones) >= 2:
                break
        zone = zones[rng.randrange(len(zones))]
        other = next(z for z in zones if z != zone)
        question = (f"List the labels of {noun} records in {db_id} whose owning {parent} "
                    f"is in the {zone} zone.")
        evidence = (f"owning {parent} refers to owner_ref = {parent}_id; {zone} zone refers "
                    f"to zone = '{zone}'")
        join = (f"FROM {noun} AS T1 INNER JOIN {parent} AS T2 ON T1.owner_ref = T2.{parent}_id "
                f"WHERE T2.zone = ")
        gold = _Rows(f"SELECT T1.label {join}'{zone}'", owned(zone))
        rewrite = _Rows(f"SELECT T1.label FROM {parent} AS T2 INNER JOIN {noun} AS T1 "
                        f"ON T2.{parent}_id = T1.owner_ref WHERE T2.zone = '{zone}'", owned(zone))
        wrong = _Rows(f"SELECT T1.label {join}'{other}'", owned(other))
        relevant, used = [noun, parent], ["label", "owner_ref", "zone"]
    else:
        noun = rng.choice(WIDE_NOUNS)
        rows, c = data[noun], col[noun]

        def m5(g):
            return [r[c["m5"]] for r in rows if r[c["grade"]] == g]
        grades = [g for g in GRADES if len(set(m5(g))) >= 2]
        grade = grades[rng.randrange(len(grades))]
        question = f"What is the highest measure 5 among {noun} records in {db_id} of grade {grade}?"
        evidence = f"highest measure 5 refers to MAX(m5); grade {grade} refers to grade = '{grade}'"
        gold = _Rows(f"SELECT MAX(m5) FROM {noun} WHERE grade = '{grade}'", [(max(m5(grade)),)])
        rewrite = _Rows(f"SELECT m5 FROM {noun} WHERE grade = '{grade}' ORDER BY m5 DESC LIMIT 1",
                        [(max(m5(grade)),)])
        wrong = _Rows(f"SELECT MIN(m5) FROM {noun} WHERE grade = '{grade}'", [(min(m5(grade)),)])
        relevant, used = [noun], ["m5", "grade"]
    pred = {"exact": gold, "rewrite": rewrite, "wrong": wrong}[cls]
    return dict(qid=qid, db_id=db_id, question=question, evidence=evidence,
                difficulty=("simple", "simple", "moderate", "challenging")[kind],
                gold=gold, preds=[pred], expect_ex=cls != "wrong",
                selector=_selector_reply(rng, k, relevant, used, tables))


def _selector_reply(rng, k, relevant, used, tables):
    """A verdict for every table: column lists for relevant ones, drop_all otherwise.

    Every third reply also keeps two unrelated tables so that three survive;
    the rest keep one or two, which makes the selector restore tables.
    """
    keep = list(relevant)
    if k % 3 == 0:
        keep += [n for n in rng.sample(WIDE_NOUNS, 4) if n not in keep][:2]
    verdicts = {}
    for noun, cols in tables.items():
        if noun not in keep:
            verdicts[noun] = "drop_all"
        elif k % 5 == 4 and noun == keep[0]:
            verdicts[noun] = "keep_all"
        else:
            names = [c[0] for c in cols]
            wanted = [c for c in used if c in names]
            # Short lists (below the six-column floor) exercise the padding rule.
            extra = [c for c in names if c not in wanted][:rng.randrange(1, 6)]
            verdicts[noun] = wanted + extra
    return "```json\n" + json.dumps(verdicts, indent=4) + "\n```\nQuestion Solved."


# -- cache -----------------------------------------------------------------

FAMILIES = {"huge_db": "retail", "bulk_rows": "retail", "wide_schema": "wide"}
GENERATORS = {"retail": generate_retail, "wide": generate_wide}


def dataset_dir(workload: str, seed: int, cache_root: Path) -> Path:
    return cache_root / f"{FAMILIES[workload]}-{seed}"


def is_complete(target: Path) -> bool:
    marker = target / "complete"
    return marker.exists() and marker.read_text() == GENERATOR_VERSION


def ensure(workload: str, seed: int, cache_root: Path) -> Path:
    """Generate the dataset of ``workload`` and ``seed`` unless it is cached.

    Datasets are kept under ``cache_root/<family>-<seed>``; only the
    ``KEEP_SEEDS`` most recently used per family are kept.
    """
    family = FAMILIES[workload]
    target = dataset_dir(workload, seed, cache_root)
    if is_complete(target):
        os.utime(target / "complete")
        return target
    if target.exists():
        shutil.rmtree(target)
    partial = cache_root / f".{family}-{seed}.partial"
    if partial.exists():
        shutil.rmtree(partial)
    partial.mkdir(parents=True)
    GENERATORS[family](seed, partial)
    (partial / "complete").write_text(GENERATOR_VERSION)
    partial.rename(target)
    _evict(cache_root, family, keep=target)
    return target


def _evict(cache_root: Path, family: str, keep: Path) -> None:
    siblings = [p for p in cache_root.glob(f"{family}-*") if p.is_dir() and p != keep]
    siblings.sort(key=lambda p: (p / "complete").stat().st_mtime if (p / "complete").exists() else 0)
    for old in siblings[:max(0, len(siblings) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(old)


if __name__ == "__main__":
    import sys

    ensure(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
