"""The benchmark's workloads: inputs made from a seed, operations, checks.

Every workload builds its inputs in ``set_up``, then runs whole rounds of
the same operations in ``run_round``; each operation is timed on its own
and checked against values the benchmark works out apart from the code
under test. The ground-truth oracle is ``fleetsim.expected_for_server``,
which walks ``negotiate.select`` directly rather than the inspection path.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from befs import cli, client, fleetsim
from befs.client import FallbackStyle, PolicyConfig, PolicyMode, SessionStatus
from befs.fleetsim import Archetype, Transport

# IANA codepoints of the suites befs offers, classified here so the checks
# do not rest on befs.suites.
ECDHE = frozenset({0xC02B, 0xC02F, 0xC02C, 0xC030, 0xCCA9, 0xCCA8, 0xC009, 0xC013, 0xC014})
AEAD = frozenset({0xC02B, 0xC02F, 0xC02C, 0xC030, 0xCCA9, 0xCCA8, 0x009C, 0x009D})
OFFERED = ECDHE | {0x009C, 0x009D, 0x002F, 0x0035, 0x000A}
RUNG_SUITES = {"FS_AE_ONLY": ECDHE & AEAD, "FS_ONLY": ECDHE, "DEFAULT": OFFERED}
LADDERS = {
    PolicyMode.DEFAULT: ("DEFAULT",),
    PolicyMode.BEFS: ("FS_ONLY", "DEFAULT"),
    PolicyMode.BESAFE: ("FS_AE_ONLY", "FS_ONLY", "DEFAULT"),
}
TLS1_2 = 0x0303

STABLE = {"STABLE_NO_FS_SUPPORT", "STABLE_SUPPORTS_FS_AE", "STABLE_SUPPORTS_FS_NONAE_ONLY",
          "STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE"}
SUPPORT_FS = STABLE - {"STABLE_NO_FS_SUPPORT"}
FS_NONAE_PICK = {"STABLE_SUPPORTS_FS_NONAE_ONLY", "STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE"}

# The paper's random-IP dataset: 26.16% of the servers do not select FS, and
# 14.46% of those support it.
NON_SELECTORS = 0.2616
FS_AMONG_NON_SELECTORS = 0.1446
# Shares the paper does not give, taken from the fleet-spec example in the
# repository README: LEGACY_PRE_TLS12 at 0.05, and FS-supporting
# non-selectors split 3:1 between FS_SUPPORTING_NONFS_PREFERRING and
# FS_NONAE_ONLY.
LEGACY = 0.05
NONFS_PREFERRING_OF_FS_SUPPORTING = 0.75
# How fleetsim's LEGACY_PRE_TLS12 servers choose, measured over 10000 of
# them: 41.77% do not select FS, and 30.00% support FS without selecting it.
LEGACY_NON_SELECTING = 0.4177
LEGACY_NON_SELECTING_FS = 0.3000
DEVICE_FRACTION = 0.25  # README example spec
META_COVERAGE = 0.9


def paper_mix(non_selectors: float = NON_SELECTORS,
              fs_among: float = FS_AMONG_NON_SELECTORS) -> dict[str, float]:
    """The five answering archetypes, in shares that give the paper's figures.

    UNRESPONSIVE is left out, and latency is zero, because a timeout or an
    injected delay measures time.sleep.
    """
    fs_supporting = fs_among * non_selectors - LEGACY * LEGACY_NON_SELECTING_FS
    no_fs = (non_selectors * (1 - fs_among)
             - LEGACY * (LEGACY_NON_SELECTING - LEGACY_NON_SELECTING_FS))
    split = NONFS_PREFERRING_OF_FS_SUPPORTING
    mix = {
        Archetype.FS_SUPPORTING_NONFS_PREFERRING.value: fs_supporting * split,
        Archetype.FS_NONAE_ONLY.value: fs_supporting * (1 - split),
        Archetype.NONFS_ONLY.value: no_fs,
        Archetype.LEGACY_PRE_TLS12.value: LEGACY,
    }
    if min(mix.values()) < 0:
        raise ValueError("no mix gives %.4f non-selectors, %.4f of them supporting FS"
                         % (non_selectors, fs_among))
    mix[Archetype.FS_PREFERRING.value] = 1.0 - sum(mix.values())
    return mix


MIX = paper_mix()


def fleet_shares(fleet) -> tuple[float, float]:
    """The share of servers that do not select FS, and of those that support it."""
    non = [s for s in fleet if not s.truth.selects_fs_by_default]
    return len(non) / len(fleet), sum(s.truth.supports_fs for s in non) / max(len(non), 1)


def shares_note(fleet) -> str:
    non_selectors, fs_among = fleet_shares(fleet)
    return "fleet of %d: %.2f%% do not select FS, %.2f%% of those support it" % (
        len(fleet), 100 * non_selectors, 100 * fs_among)


@dataclass(frozen=True)
class Round:
    """One round's operations: their durations in seconds, and the tallies."""

    durations: list[float]
    items: int
    attempted: int
    failed: int
    labels: tuple[str, ...] = ()  # per operation, where operations differ in kind


def fleet_seeds(seed: int, name: str, count: int) -> list[int]:
    rng = random.Random("%s/%d" % (name, seed))
    return [rng.randrange(1 << 30) for _ in range(count)]


def write_spec(path: Path, size: int, fleet_seed: int) -> dict:
    spec = {"size": size, "seed": fleet_seed, "mix": MIX,
            "network_device_fraction": DEVICE_FRACTION}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return spec


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, size: int, quiet=contextlib.nullcontext):
        self.seed = seed
        self.workdir = workdir
        self.size = size
        # Context in which the benchmark's own oracle and checks run, so a
        # tracer can leave them out.
        self.quiet = quiet
        self.notes: list[str] = []  # facts about the inputs, printed with the result

    def set_up(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _cli(self, argv: list[str]) -> tuple[float, int]:
        """Run befs.cli.main in-process with its output going to files."""
        with open(self.workdir / "stdout", "w", encoding="utf-8") as out, \
                open(self.workdir / "stderr", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            return time.perf_counter() - start, code


class MeasureMemory(Workload):
    """``befs inspect`` over an in-memory fleet, one CLI call per round."""

    name = "measure_memory"

    def __init__(self, seed, workdir, size=1000, quiet=contextlib.nullcontext):
        super().__init__(seed, workdir, size, quiet)

    def set_up(self) -> None:
        spec_path = self.workdir / "fleet.json"
        store = self.workdir / "store.jsonl"
        spec = write_spec(spec_path, self.size, fleet_seeds(self.seed, self.name, 1)[0])
        with self.quiet():
            fleet = fleetsim.generate_fleet(fleetsim.fleet_spec_from_dict(spec))
            self.notes = [shares_note(fleet)]
            self.expected = {}
            for server in fleet:
                exp = fleetsim.expected_for_server(server)
                self.expected[server.server_id] = (
                    server.truth.selects_fs_by_default,
                    (exp.classification.name, exp.prior_suite_ae, exp.lose_ae),
                )
        self.store = store
        self.argv = ["inspect", "--fleet-spec", str(spec_path), "--transport", "memory",
                     "--concurrency", "1", "--store", str(store),
                     "--campaign", "bench", "--seed", str(self.seed)]

    def run_round(self) -> Round:
        self.store.unlink(missing_ok=True)
        seconds, code = self._cli(self.argv)
        with self.quiet():
            failed = self.check(code)
        n = len(self.expected)
        return Round([seconds], n, n, failed)

    def check(self, code: int) -> int:
        """Addresses whose records are wrong; every address if the store is."""
        if code != 0 or not self.store.exists():
            return len(self.expected)
        scans: dict[str, list[dict]] = {}
        inspections: dict[str, list[dict]] = {}
        with open(self.store, encoding="utf-8") as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except ValueError:
                    return len(self.expected)
                bucket = {"scan": scans, "inspection": inspections}.get(rec.get("kind"))
                if bucket is None or rec.get("address") not in self.expected:
                    return len(self.expected)
                bucket.setdefault(rec["address"], []).append(rec)
        failed = 0
        for address, (selects_fs, verdict) in self.expected.items():
            scan = scans.get(address, [])
            found = inspections.get(address, [])
            ok = len(scan) == 1 and (scan[0]["selected_suite"] in ECDHE) == selects_fs
            if selects_fs:
                ok = ok and not found
            else:
                ok = ok and len(found) == 1 and (
                    found[0]["classification"], found[0]["prior_suite_ae"], found[0]["lose_ae"]
                ) == verdict
            failed += not ok
        return failed


class EnforceLoopback(Workload):
    """Sequential DEFAULT, BEFS and BESAFE connects over loopback sockets."""

    name = "enforce_loopback"
    modes = (PolicyMode.DEFAULT, PolicyMode.BEFS, PolicyMode.BESAFE)

    def __init__(self, seed, workdir, size=400, quiet=contextlib.nullcontext):
        super().__init__(seed, workdir, size, quiet)
        self.harness = None

    def set_up(self) -> None:
        spec = fleetsim.fleet_spec_from_dict(
            {"size": self.size, "seed": fleet_seeds(self.seed, self.name, 1)[0], "mix": MIX})
        fleet = fleetsim.generate_fleet(spec)
        with self.quiet():
            self.notes = [shares_note(fleet)]
        self.harness = fleetsim.serve(fleet, Transport.LOOPBACK_SOCKET, seed=self.seed)
        self.connector = self.harness.connector()
        self.targets = [(s.address, s.truth) for s in fleet]
        self.configs = {m: PolicyConfig(mode=m, fallback=FallbackStyle.SILENT, timeout_s=5.0)
                        for m in self.modes}
        self.labels = tuple("%s_connect" % m.name.lower() for m in self.modes) * len(self.targets)

    def close(self) -> None:
        if self.harness is not None:
            self.harness.stop()
            self.harness = None

    def run_round(self) -> Round:
        durations = []
        failed = 0
        clock = time.perf_counter
        for address, truth in self.targets:
            for mode in self.modes:
                start = clock()
                outcome = client.connect(address, self.configs[mode],
                                         connector=self.connector, seed=self.seed)
                durations.append(clock() - start)
                with self.quiet():
                    failed += not self.check(mode, outcome, truth)
        return Round(durations, len(durations), len(durations), failed, self.labels)

    @staticmethod
    def check(mode: PolicyMode, outcome, truth) -> bool:
        if outcome.status is not SessionStatus.CONNECTED:
            return False
        depth = outcome.fallback_depth
        ladder = LADDERS[mode]
        if not 0 <= depth < len(ladder) or outcome.handshake_attempts != depth + 1:
            return False
        version = outcome.attempts[-1].version
        if outcome.suite not in RUNG_SUITES[ladder[depth]] or version is None or version > TLS1_2:
            return False
        if outcome.fs != (outcome.suite in ECDHE):
            return False
        if mode is PolicyMode.BEFS and outcome.fs != truth.supports_fs:
            return False
        if mode is PolicyMode.BESAFE:
            want = 0 if truth.supports_fs_ae else 1 if truth.supports_fs else 2
            if depth != want:
                return False
        return True


class ReportLog(Workload):
    """``befs report`` for one campaign of a store that holds several."""

    name = "report_log"

    def __init__(self, seed, workdir, size=1000, campaigns=4, quiet=contextlib.nullcontext):
        super().__init__(seed, workdir, size, quiet)
        self.campaigns = campaigns

    def set_up(self) -> None:
        store = self.workdir / "store.jsonl"
        store.unlink(missing_ok=True)
        self.jobs = []
        self.notes = []
        for index, fleet_seed in enumerate(fleet_seeds(self.seed, self.name, self.campaigns)):
            campaign = "c%d" % index
            spec_path = self.workdir / ("fleet-%s.json" % campaign)
            meta_path = self.workdir / ("meta-%s.tsv" % campaign)
            spec = write_spec(spec_path, self.size, fleet_seed)
            _, code = self._cli(["inspect", "--fleet-spec", str(spec_path), "--transport", "memory",
                                 "--concurrency", "1", "--store", str(store),
                                 "--campaign", campaign, "--seed", str(self.seed)])
            if code != 0:
                raise RuntimeError("set-up inspect of %s exited %d" % (campaign, code))
            with self.quiet():
                fleet = fleetsim.generate_fleet(fleetsim.fleet_spec_from_dict(spec))
                self.notes.append("%s %s" % (campaign, shares_note(fleet)))
                covered = self._write_meta(meta_path, fleet, fleet_seed)
                expected, records = self._expected_table(campaign, fleet, covered)
            argv = ["report", "--store", str(store), "--campaign", campaign,
                    "--device-meta", str(meta_path)]
            self.jobs.append((argv, expected, records))

    @staticmethod
    def _write_meta(path: Path, fleet, fleet_seed: int) -> set[str]:
        rng = random.Random(fleet_seed)
        covered = {s.server_id for s in fleet if rng.random() < META_COVERAGE}
        with open(path, "w", encoding="utf-8") as fh:
            for server in fleet:
                if server.server_id in covered:
                    fh.write("%s\t%s\n" % (server.server_id, server.truth.device_type))
        return covered

    @staticmethod
    def _expected_table(campaign: str, fleet, covered: set[str]) -> tuple[dict, int]:
        """The aggregate table counted from ground truth alone."""
        n = len(fleet)
        classes = []
        lose_ae = lose_ae_support = 0
        for server in fleet:
            if server.truth.selects_fs_by_default:
                continue
            exp = fleetsim.expected_for_server(server)
            classes.append(exp.classification.name)
            if exp.lose_ae:
                lose_ae += 1
                lose_ae_support += exp.classification.name == "STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE"
        select_non_fs = len(classes)
        stable = sum(c in STABLE for c in classes)
        support_fs = sum(c in SUPPORT_FS for c in classes)
        pick_nonae = sum(c in FS_NONAE_PICK for c in classes)
        support_fs_ae = classes.count("STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE")
        devices = sum(1 for s in fleet if s.server_id in covered and s.truth.device_type)

        def row(count: int, of: int) -> dict:
            return {"count": count, "pct": None if of == 0 else round(100.0 * count / of, 2)}

        table = {
            "campaign": campaign,
            "dataset_size": n,
            "distinct_ip": n,
            "metadata_responders": len(covered),
            "responding": row(n, n),
            "network_device": row(devices, len(covered)),
            "select_non_fs": row(select_non_fs, n),
            "stable": row(stable, select_non_fs),
            "support_fs": row(support_fs, stable),
            "select_fs_non_ae": row(pick_nonae, support_fs),
            "support_fs_ae": row(support_fs_ae, pick_nonae),
            "lose_ae": row(lose_ae, pick_nonae),
            "lose_ae_support_fs_ae": row(lose_ae_support, lose_ae),
        }
        return table, n + select_non_fs

    def run_round(self) -> Round:
        durations = []
        items = failed = 0
        for argv, expected, records in self.jobs:
            seconds, code = self._cli(argv)
            durations.append(seconds)
            items += records
            with self.quiet():
                failed += not (code == 0 and self.check(expected))
        return Round(durations, items, len(durations), failed)

    def check(self, expected: dict) -> bool:
        lines = (self.workdir / "stdout").read_text(encoding="utf-8").splitlines()
        diagnostics = (self.workdir / "stderr").read_text(encoding="utf-8")
        if len(lines) != 1 or "skipped corrupt" in diagnostics:
            return False
        try:
            return json.loads(lines[0]) == expected
        except ValueError:
            return False


WORKLOADS = {w.name: w for w in (MeasureMemory, EnforceLoopback, ReportLog)}
