"""Alarm store (paper §3, workflow step 4 — PostgreSQL substitute).

"Upon detecting anomalies, Env2Vec pushes an alarm into a PostgreSQL
database. This alarm contains all the relevant information to allow a
testing engineer who triggered the test case execution to pinpoint on
which testbed the issue occurred, and during which time interval."

PostgreSQL is unavailable offline; the store is backed by sqlite3 (stdlib),
which preserves the SQL schema, the persistence, and the query patterns.
Alarms can also drive automated actions such as early termination — see
:meth:`AlarmStore.should_terminate`.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path

from ..data.environment import Environment

__all__ = ["AlarmRecord", "AlarmStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS alarms (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    testbed TEXT NOT NULL,
    sut TEXT NOT NULL,
    testcase TEXT NOT NULL,
    build TEXT NOT NULL,
    start_step INTEGER NOT NULL,
    end_step INTEGER NOT NULL,
    peak_deviation REAL NOT NULL,
    gamma REAL NOT NULL,
    created_at REAL NOT NULL,
    acknowledged INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_alarms_testbed ON alarms (testbed);
CREATE INDEX IF NOT EXISTS idx_alarms_build ON alarms (build);
"""


@dataclass(frozen=True)
class AlarmRecord:
    """One persisted alarm, as a testing engineer would query it."""

    alarm_id: int
    environment: Environment
    start_step: int
    end_step: int
    peak_deviation: float
    gamma: float
    created_at: float
    acknowledged: bool

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start_step, self.end_step)


class AlarmStore:
    """SQL-backed alarm persistence with the paper's query patterns."""

    def __init__(self, path: str | Path = ":memory:"):
        self._conn = sqlite3.connect(str(path))
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        row = self._conn.execute("SELECT MAX(created_at) FROM alarms").fetchone()
        self._logical_time = int(row[0]) if row and row[0] is not None else 0

    def _next_logical_time(self) -> float:
        self._logical_time += 1
        return float(self._logical_time)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "AlarmStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes ---------------------------------------------------------
    def push(
        self,
        environment: Environment,
        start_step: int,
        end_step: int,
        peak_deviation: float,
        gamma: float,
    ) -> int:
        """Insert one alarm; returns its id (see :meth:`push_many`)."""
        (alarm_id,) = self.push_many([(environment, start_step, end_step, peak_deviation, gamma)])
        return alarm_id

    def push_many(self, alarms: list[tuple[Environment, int, int, float, float]]) -> list[int]:
        """Insert ``(environment, start_step, end_step, peak_deviation,
        gamma)`` alarms in order, in one transaction; returns their ids.

        Each alarm's ``created_at`` is a logical per-store sequence number
        (1, 2, 3, ...). A wall-clock stamp here (REP002) leaked real time
        into campaign reports and broke same-seed byte-identity. Every
        alarm is checked before any is stored, so a bad one stores none.
        The first INSERT holds the database's write lock until the
        commit, so the rows get consecutive ids ending at
        ``last_insert_rowid()``: the ids of one :meth:`push` per alarm.
        """
        for _, start_step, end_step, _, _ in alarms:
            if not 0 <= start_step < end_step:
                raise ValueError("need 0 <= start_step < end_step")
        if not alarms:
            return []
        self._conn.executemany(
            "INSERT INTO alarms (testbed, sut, testcase, build, start_step, end_step,"
            " peak_deviation, gamma, created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (*environment.as_tuple(), start_step, end_step, float(peak_deviation),
                 float(gamma), self._next_logical_time())
                for environment, start_step, end_step, peak_deviation, gamma in alarms
            ],
        )
        (last,) = self._conn.execute("SELECT last_insert_rowid()").fetchone()
        self._conn.commit()
        return list(range(last - len(alarms) + 1, last + 1))

    def acknowledge(self, alarm_id: int) -> None:
        cursor = self._conn.execute(
            "UPDATE alarms SET acknowledged = 1 WHERE id = ?", (alarm_id,)
        )
        if cursor.rowcount == 0:
            raise KeyError(f"no alarm with id {alarm_id}")
        self._conn.commit()

    # -- queries -----------------------------------------------------------
    def fetch(
        self,
        testbed: str | None = None,
        build: str | None = None,
        environment: Environment | None = None,
        unacknowledged_only: bool = False,
    ) -> list[AlarmRecord]:
        clauses, params = [], []
        if environment is not None:
            for column, value in environment.as_dict().items():
                clauses.append(f"{column} = ?")
                params.append(value)
        if testbed is not None:
            clauses.append("testbed = ?")
            params.append(testbed)
        if build is not None:
            clauses.append("build = ?")
            params.append(build)
        if unacknowledged_only:
            clauses.append("acknowledged = 0")
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            "SELECT id, testbed, sut, testcase, build, start_step, end_step,"
            f" peak_deviation, gamma, created_at, acknowledged FROM alarms{where}"
            " ORDER BY id",
            params,
        ).fetchall()
        return [self._to_record(row) for row in rows]

    def count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM alarms").fetchone()[0])

    def should_terminate(
        self, environment: Environment, threshold: int = 3, pending: int = 0
    ) -> bool:
        """Automated action hook: terminate a test early after N alarms.

        §3 step 4: "Such alarms can also trigger automated actions, such as
        early termination of the test case execution." ``pending`` counts
        this environment's alarms that are about to be pushed but are not
        stored yet, so a batch that stores its alarms at the end sees the
        counts of pushing them one by one.
        """
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        row = self._conn.execute(
            "SELECT COUNT(*) FROM alarms WHERE testbed = ? AND sut = ? AND testcase = ?"
            " AND build = ?",
            environment.as_tuple(),
        ).fetchone()
        return int(row[0]) + pending >= threshold

    @staticmethod
    def _to_record(row: tuple) -> AlarmRecord:
        return AlarmRecord(
            alarm_id=int(row[0]),
            environment=Environment(row[1], row[2], row[3], row[4]),
            start_step=int(row[5]),
            end_step=int(row[6]),
            peak_deviation=float(row[7]),
            gamma=float(row[8]),
            created_at=float(row[9]),
            acknowledged=bool(row[10]),
        )
