"""Agent prompt templates and the slot-filling helper.

Templates carry literal ``{slot}`` markers that are substituted in one pass
over the template (never str.format) because schema text and worked examples
contain braces of their own.
"""

from __future__ import annotations

import re

_SLOT = re.compile(r"\{(\w+)\}")


def fill(template: str, **slots: str) -> str:
    """``template`` with each marker of a given slot replaced; other markers stay.

    Text put in for one slot is never searched for markers again.
    """
    return _SLOT.sub(lambda m: slots.get(m.group(1), m.group(0)), template)


SELECTOR_TEMPLATE = """As an experienced and professional database administrator, your task is to analyze a user question and a database schema to provide relevant information. The database schema consists of table descriptions, each containing multiple column descriptions. Your goal is to identify the relevant tables and columns based on the user question and evidence provided.

[Instruction]
1. Discard any table schema that is not related to the user question and evidence.
2. Sort the columns in each relevant table in descending order of relevance and keep the top 6 columns.
3. Ensure that at least 3 tables are included in the final output JSON.
4. The output should be in JSON format.

[Requirements]
1. If a table has less than or equal to 10 columns, mark it as "keep_all".
2. If a table is completely irrelevant to the user question and evidence, mark it as "drop_all".
3. Prioritize the columns in each relevant table based on their relevance.

Here is a typical example:

==========
[DB_ID] banking_system
[Schema]
# Table: account
[
    (account_id, the id of the account. Value examples: [11382, 11362, 2, 1, 2367].),
    (district_id, location of branch. Value examples: [77, 76, 2, 1, 39].),
    (frequency, frequency of the acount. Value examples: ['POPLATEK MESICNE', 'POPLATEK TYDNE', 'POPLATEK PO OBRATU'].),
    (date, the creation date of the account. Value examples: ['1997-12-29', '1997-12-28'].)
]
# Table: client
[
    (client_id, the unique number. Value examples: [13998, 13971, 2, 1, 2839].),
    (gender, gender. Value examples: ['M', 'F']. And F:female . M:male ),
    (birth_date, birth date. Value examples: ['1987-09-27', '1986-08-13'].),
    (district_id, location of branch. Value examples: [77, 76, 2, 1, 39].)
]
# Table: loan
[
    (loan_id, the id number identifying the loan data. Value examples: [4959, 4960, 4961].),
    (account_id, the id number identifying the account. Value examples: [10, 80, 55, 43].),
    (date, the date when the loan is approved. Value examples: ['1998-07-12', '1998-04-19'].),
    (amount, the id number identifying the loan data. Value examples: [1567, 7877, 9988].),
    (duration, the id number identifying the loan data. Value examples: [60, 48, 24, 12, 36].),
    (payments, the id number identifying the loan data. Value examples: [3456, 8972, 9845].),
    (status, the id number identifying the loan data. Value examples: ['C', 'A', 'D', 'B'].)
]
# Table: district
[
    (district_id, location of branch. Value examples: [77, 76].),
    (A2, area in square kilometers. Value examples: [50.5, 48.9].),
    (A4, number of inhabitants. Value examples: [95907, 95616].),
    (A5, number of households. Value examples: [35678, 34892].),
    (A6, literacy rate. Value examples: [95.6, 92.3, 89.7].),
    (A7, number of entrepreneurs. Value examples: [1234, 1456].),
    (A8, number of cities. Value examples: [5, 4].),
    (A9, number of schools. Value examples: [15, 12, 10].),
    (A10, number of hospitals. Value examples: [8, 6, 4].),
    (A11, average salary. Value examples: [12541, 11277].),
    (A12, poverty rate. Value examples: [12.4, 9.8].),
    (A13, unemployment rate. Value examples: [8.2, 7.9].),
    (A15, number of crimes. Value examples: [256, 189].)
]
[Foreign keys]
client.`district_id` = district.`district_id`
[Question]
What is the gender of the youngest client who opened account in the lowest average salary branch?
[Evidence]
Later birthdate refers to younger age; A11 refers to average salary
[Answer]
```json
{
    "account": "keep_all",
    "client": "keep_all",
    "loan": "drop_all",
    "district": ["district_id", "A11", "A2", "A4", "A6", "A7"]
}
```
Question Solved.
==========

Here is a new example, please start answering:

[DB_ID] {db_id}
[Schema]
{desc_str}
[Foreign keys]
{fk_str}
[Question]
{query}
[Evidence]
{evidence}
[Answer]"""


DECOMPOSER_PREAMBLE = """Given a [Database schema] description, a knowledge [Evidence] and the [Question], you need to use valid SQLite and understand the database and knowledge, and then decompose the question into subquestions for text-to-SQL generation.

When generating SQL, we should always consider constraints:
[Constraints]
- In `SELECT <column>`, just select needed columns in the [Question] without any unnecessary column or value
- In `FROM <table>` or `JOIN <table>`, do not include unnecessary table
- If use max or min func, `JOIN <table>` FIRST, THEN use `SELECT MAX(<column>)` or `SELECT MIN(<column>)`
- If [Value examples] of <column> has 'None' or None, use `JOIN <table>` or `WHERE <column> is NOT NULL` is better
- If use `ORDER BY <column> ASC|DESC`, add `GROUP BY <column>` before to select distinct values"""


DECOMPOSER_SHOT_SCHOOLS = """[Database schema]
# Table: frpm
[
    (CDSCode, CDSCode. Value examples: ['01100170109835', '01100170112607'].),
    (Charter School (Y/N), Charter School (Y/N). Value examples: [1, 0, None]. And 0: N;. 1: Y),
    (Enrollment (Ages 5-17), Enrollment (Ages 5-17). Value examples: [5271.0, 4734.0].),
    (Free Meal Count (Ages 5-17), Free Meal Count (Ages 5-17). Value examples: [3864.0, 2637.0]. And eligible free rate = Free Meal Count / Enrollment)
]
# Table: satscores
[
    (cds, California Department Schools. Value examples: ['10101080000000', '10101080109991'].),
    (sname, school name. Value examples: ['None', 'Middle College High', 'John F. Kennedy High', 'Independence High', 'Foothill High'].),
    (NumTstTakr, Number of Test Takers in this school. Value examples: [24305, 4942, 1, 0, 280]. And number of test takers in each school),
    (AvgScrMath, average scores in Math. Value examples: [699, 698, 289, None, 492]. And average scores in Math),
    (NumGE1500, Number of Test Takers Whose Total SAT Scores Are Greater or Equal to 1500. Value examples: [5837, 2125, 0, None, 191]. And Number of Test Takers Whose Total SAT Scores Are Greater or Equal to 1500. . commonsense evidence:. . Excellence Rate = NumGE1500 / NumTstTakr)
]
[Foreign keys]
frpm.`CDSCode` = satscores.`cds`
[Question]
List school names of charter schools with an SAT excellence rate over the average.
[Evidence]
Charter schools refers to `Charter School (Y/N)` = 1 in the table frpm; Excellence rate = NumGE1500 / NumTstTakr

Decompose the question into sub questions, considering [Constraints], and generate the SQL after thinking step by step:
Sub question 1: Get the average value of SAT excellence rate of charter schools.
SQL
```sql
SELECT AVG(CAST(T2.`NumGE1500` AS REAL) / T2.`NumTstTakr`)
    FROM frpm AS T1
    INNER JOIN satscores AS T2
    ON T1.`CDSCode` = T2.`cds`
    WHERE T1.`Charter School (Y/N)` = 1
```

Sub question 2: List out school names of charter schools with an SAT excellence rate over the average.
SQL
```sql
SELECT T2.`sname`
    FROM frpm AS T1
    INNER JOIN satscores AS T2
    ON T1.`CDSCode` = T2.`cds`
    WHERE T2.`sname` IS NOT NULL
    AND T1.`Charter School (Y/N)` = 1
    AND CAST(T2.`NumGE1500` AS REAL) / T2.`NumTstTakr` > (
        SELECT AVG(CAST(T4.`NumGE1500` AS REAL) / T4.`NumTstTakr`)
        FROM frpm AS T3
        INNER JOIN satscores AS T4
        ON T3.`CDSCode` = T4.`cds`
        WHERE T3.`Charter School (Y/N)` = 1
    )
```

Question Solved."""


DECOMPOSER_SHOT_BANKING = """[Database schema]
# Table: account
[
    (account_id, the id of the account. Value examples: [11382, 11362, 2, 1, 2367].),
    (district_id, location of branch. Value examples: [77, 76, 2, 1, 39].),
    (frequency, frequency of the acount. Value examples: ['POPLATEK MESICNE', 'POPLATEK TYDNE', 'POPLATEK PO OBRATU'].),
    (date, the creation date of the account. Value examples: ['1997-12-29', '1997-12-28'].)
]
# Table: client
[
    (client_id, the unique number. Value examples: [13998, 13971, 2, 1, 2839].),
    (gender, gender. Value examples: ['M', 'F']. And F:female . M:male ),
    (birth_date, birth date. Value examples: ['1987-09-27', '1986-08-13'].),
    (district_id, location of branch. Value examples: [77, 76, 2, 1, 39].)
]
# Table: district
[
    (district_id, location of branch. Value examples: [77, 76, 2, 1, 39].),
    (A4, number of inhabitants . Value examples: ['95907', '95616', '94812'].),
    (A11, average salary. Value examples: [12541, 11277, 8114].)
]
[Foreign keys]
account.`district_id` = district.`district_id`
client.`district_id` = district.`district_id`
[Question]
What is the gender of the youngest client who opened account in the lowest average salary branch?
[Evidence]
Later birthdate refers to younger age; A11 refers to average salary

Decompose the question into sub questions, considering [Constraints], and generate the SQL after thinking step by step:
Sub question 1: What is the district_id of the branch with the lowest average salary?
SQL
```sql
SELECT `district_id`
    FROM district
    ORDER BY `A11` ASC
    LIMIT 1
```

Sub question 2: What is the youngest client who opened account in the lowest average salary branch?
SQL
```sql
SELECT T1.`client_id`
    FROM client AS T1
    INNER JOIN district AS T2
    ON T1.`district_id` = T2.`district_id`
    ORDER BY T2.`A11` ASC, T1.`birth_date` DESC
    LIMIT 1
```

Sub question 3: What is the gender of the youngest client who opened account in the lowest average salary branch?
SQL
```sql
SELECT T1.`gender`
    FROM client AS T1
    INNER JOIN district AS T2
    ON T1.`district_id` = T2.`district_id`
    ORDER BY T2.`A11` ASC, T1.`birth_date` DESC
    LIMIT 1
```
Question Solved."""


DECOMPOSER_SHOTS = (DECOMPOSER_SHOT_SCHOOLS, DECOMPOSER_SHOT_BANKING)


DECOMPOSER_NEW_ITEM = """[Database schema]
{desc_str}
[Foreign keys]
{fk_str}
[Question]
{query}
[Evidence]
{evidence}

Decompose the question into sub questions, considering [Constraints], and generate the SQL after thinking step by step:"""


REFINER_TEMPLATE = """[Instruction]
When executing SQL below, some errors occurred, please fix up SQL based on query and database info. Solve the task step by step if you need to. Using SQL format in the code block, and indicate script type in the code block. When you find an answer, verify the answer carefully. Include verifiable evidence in your response if possible.
[Constraints]
- In `SELECT <column>`, just select needed columns in the [Question] without any unnecessary column or value
- In `FROM <table>` or `JOIN <table>`, do not include unnecessary table
- If use max or min func, `JOIN <table>` FIRST, THEN use `SELECT MAX(<column>)` or `SELECT MIN(<column>)`
- If [Value examples] of <column> has 'None' or None, use `JOIN <table>` or `WHERE <column> is NOT NULL` is better
- If use `ORDER BY <column> ASC|DESC`, add `GROUP BY <column>` before to select distinct values
[Query]
{query}
[Evidence]
{evidence}
[Database info]
{desc_str}
[Foreign keys]
{fk_str}
[old SQL]
```sql
{sql}
```
[SQLite error]
{sqlite_error}
[Exception class]
{exception_class}

Now please fixup old SQL and generate new SQL again.
[correct SQL]"""


SECTION_SEPARATOR = "\n\n==========\n\n"
