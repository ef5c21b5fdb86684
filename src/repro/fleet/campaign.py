"""Fleet update campaigns: staged rollout over many devices.

The paper's deployment story — billions of heterogeneous devices,
updated regularly — implies a *campaign* layer above the per-device
protocol: release to a canary subset first, watch the failure rate,
abort before a bad update bricks the fleet, retry devices with flaky
links.  This module provides that layer on top of the per-device
transports, with deterministic ordering so campaigns are reproducible.

The per-device flow is unchanged UpKit (token → double-signed image →
early verification → reboot); the campaign only decides *who updates
when* and interprets the outcomes.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core import UpdateServer
from ..net import Link, PullTransport, PushTransport, UpdateOutcome
from ..net.transports import Interceptor, TransportRetryPolicy
from ..obs.health import DeviceSample
from ..obs.slo import Action, FleetTelemetry, WaveVerdict
from ..sim.device import SimulatedDevice
from .budget import CAUTION_TRANSPORT_RETRY, RetryGovernor
from .executor import SerialWaveExecutor
from .journal import CampaignJournal

__all__ = ["DeviceRecord", "DeviceState", "RolloutPolicy", "RetryPolicy",
           "CampaignReport", "Campaign", "transport_for", "drive_attempt",
           "finalize_failed", "post_mortem_phases"]


class DeviceState(enum.Enum):
    """Where one device stands within a campaign."""

    PENDING = "pending"
    UPDATED = "updated"
    FAILED = "failed"
    SKIPPED = "skipped"   # campaign aborted before this device's turn
    QUARANTINED = "quarantined"  # exhausted its retry budget; flagged for
    #                              manual follow-up, excluded from the
    #                              wave failure-rate abort computation


@dataclass
class DeviceRecord:
    """One fleet member and its campaign status."""

    name: str
    device: SimulatedDevice
    transport: str = "pull"            # "push" or "pull"
    interceptor: Optional[Interceptor] = None  # per-device link condition
    #: Per-device link instance (loss rate, outage schedule).  Reused
    #: across attempts so an outage survived on attempt 1 stays survived
    #: — this is what lets flaky-link devices converge under retry.
    link: Optional[Link] = None
    state: DeviceState = DeviceState.PENDING
    attempts: int = 0
    #: Transport-level interruptions summed over every attempt (the
    #: last outcome alone would hide outages survived on earlier tries).
    interruptions: int = 0
    last_outcome: Optional[UpdateOutcome] = None

    def __post_init__(self) -> None:
        if self.transport not in ("push", "pull"):
            raise ValueError("transport must be 'push' or 'pull'")


@dataclass(frozen=True)
class RolloutPolicy:
    """Knobs of a staged rollout."""

    canary_fraction: float = 0.1     # fraction updated in the first wave
    abort_failure_rate: float = 0.34  # abort when a wave fails this much
    max_attempts: int = 2            # per-device retries on failure

    def __post_init__(self) -> None:
        if not (0.0 < self.canary_fraction <= 1.0):
            raise ValueError("canary_fraction must be in (0, 1]")
        if not (0.0 < self.abort_failure_rate <= 1.0):
            raise ValueError("abort_failure_rate must be in (0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


@dataclass(frozen=True)
class RetryPolicy:
    """Campaign-level retry schedule for flaky-link devices.

    Between attempts the device waits out an exponential backoff with
    deterministic per-device jitter (derived from the device *name*, so
    reports replay exactly); after ``quarantine_after`` failed attempts
    the device is :attr:`~DeviceState.QUARANTINED` instead of merely
    failed — flagged for manual follow-up and excluded from the wave
    failure-rate that can abort the campaign, so one bad radio does not
    cancel a fleet-wide rollout.
    """

    max_attempts: int = 3
    backoff_initial: float = 5.0
    backoff_factor: float = 2.0
    backoff_max: float = 300.0
    jitter: float = 0.1
    quarantine_after: Optional[int] = None
    seed: int = 0
    #: Transport-layer resume policy handed to every per-attempt
    #: transport (None keeps transports non-resuming).
    transport_retry: Optional[TransportRetryPolicy] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise ValueError("quarantine_after must be at least 1")

    def delay(self, attempt: int, device_name: str) -> float:
        """Backoff after ``attempt`` failures (1-based), jittered
        deterministically per device name."""
        base = min(self.backoff_max,
                   self.backoff_initial
                   * self.backoff_factor ** (attempt - 1))
        if self.jitter:
            mix = (self.seed
                   ^ zlib.crc32(device_name.encode("utf-8"))
                   ^ (attempt * 0x9E3779B9))
            rng = random.Random(mix)
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign run."""

    target_version: int
    aborted: bool
    #: True when an SLO breach *paused* the rollout: remaining devices
    #: stay :attr:`~DeviceState.PENDING` (listed in :attr:`pending`)
    #: for an operator decision, unlike an abort's hard skip.
    paused: bool = False
    waves: List[List[str]] = field(default_factory=list)
    updated: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    #: Devices left pending by a PAUSE verdict.
    pending: List[str] = field(default_factory=list)
    #: SLO breach dicts, in the order the telemetry plane raised them
    #: (empty when no telemetry is attached or nothing breached).
    slo_breaches: List[Dict[str, object]] = field(default_factory=list)
    #: Attempts beyond the first, summed over the fleet.
    retries: int = 0
    #: Transport-level interruption events observed fleet-wide (most
    #: survived via resume; the rest ended in abandonment).
    link_interruptions: int = 0
    total_bytes_over_air: int = 0
    total_energy_mj: float = 0.0
    #: Modeled campaign wall-clock: devices within a wave update in
    #: parallel (each against its own radio), waves run back-to-back.
    wall_clock_seconds: float = 0.0

    @property
    def success_rate(self) -> float:
        done = (len(self.updated) + len(self.failed)
                + len(self.quarantined))
        return len(self.updated) / done if done else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary for dashboards and CI artifacts."""
        return {
            "target_version": self.target_version,
            "aborted": self.aborted,
            "paused": self.paused,
            "waves": self.waves,
            "updated": self.updated,
            "failed": self.failed,
            "skipped": self.skipped,
            "quarantined": self.quarantined,
            "pending": self.pending,
            "slo_breaches": self.slo_breaches,
            "retries": self.retries,
            "link_interruptions": self.link_interruptions,
            "success_rate": self.success_rate,
            "total_bytes_over_air": self.total_bytes_over_air,
            "total_energy_mj": self.total_energy_mj,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


# -- the per-device driver ----------------------------------------------------
#
# One attempt of one device is the unit both campaign flavours share:
# the hydrated `Campaign` loops attempts back-to-back inside
# `_update_device`, while the columnar `ScaleCampaign` replays the same
# sequence from discrete retry events.  Keeping the body here (and
# calling it from both) is what makes the two paths byte-identical.


def transport_for(record: DeviceRecord, server: UpdateServer,
                  transport_retry: Optional[TransportRetryPolicy] = None):
    """Build the per-attempt transport exactly as a campaign would."""
    cls = PushTransport if record.transport == "push" else PullTransport
    return cls(record.device, server,
               interceptor=record.interceptor,
               link=record.link, retry=transport_retry)


def drive_attempt(server: UpdateServer, record: DeviceRecord, target: int,
                  transport_retry: Optional[TransportRetryPolicy] = None
                  ) -> UpdateOutcome:
    """Run exactly one update attempt, mutating the record in place.

    Sets :attr:`DeviceRecord.state` to ``UPDATED`` on success; a failed
    attempt leaves the state untouched so the caller decides between a
    retry, :func:`finalize_failed`, or its own policy.
    """
    record.attempts += 1
    transport = transport_for(record, server, transport_retry)
    outcome = transport.run_update()
    record.last_outcome = outcome
    record.interruptions += outcome.interruptions
    if outcome.success and outcome.booted_version == target:
        record.state = DeviceState.UPDATED
    return outcome


def finalize_failed(record: DeviceRecord,
                    retry: Optional[RetryPolicy]) -> None:
    """Close out a device whose retry budget is exhausted."""
    if (retry is not None
            and retry.quarantine_after is not None
            and record.attempts >= retry.quarantine_after):
        record.state = DeviceState.QUARANTINED
    else:
        record.state = DeviceState.FAILED


def post_mortem_phases(record: DeviceRecord) -> Dict[str, int]:
    """Interruption counts per lifecycle phase from the device's black
    box (the hydrated sample's ``interrupted_phases``).  Shared by both
    campaign flavours and the campaign journal."""
    phases: Dict[str, int] = {}
    blackbox = getattr(record.device, "blackbox", None)
    if blackbox is not None:
        for interruption in blackbox.post_mortem()["interruptions"]:
            phase = interruption["phase"]
            phases[phase] = phases.get(phase, 0) + 1
    return phases


class Campaign:
    """Runs one release across a fleet under a rollout policy.

    Two optional planes turn a plain rollout into a crash-safe,
    storm-bounded one:

    * ``journal`` — a :class:`~repro.fleet.journal.CampaignJournal`
      write-ahead log.  Every wave plan is journaled before any member
      is driven and every device outcome the moment it lands, so a
      coordinator that dies mid-wave (:exc:`CoordinatorKilled`) can be
      resurrected with :meth:`resume`: already-updated devices are not
      re-flashed, no token is issued twice, and the final report is
      byte-identical to the uninterrupted run.
    * ``governor`` — a :class:`~repro.fleet.budget.RetryGovernor`
      gating every attempt through a global retry budget and
      per-domain circuit breakers (``domain_of`` maps device name ->
      fault-domain name).  Under a correlated outage the governor
      sheds retries (device quarantined with zero backhaul traffic)
      and probes sick domains cautiously instead of amplifying the
      storm.
    """

    def __init__(self, server: UpdateServer, fleet: List[DeviceRecord],
                 policy: Optional[RolloutPolicy] = None,
                 executor: Optional[SerialWaveExecutor] = None,
                 retry: Optional[RetryPolicy] = None,
                 metrics=None,
                 telemetry: Optional[FleetTelemetry] = None,
                 journal: Optional[CampaignJournal] = None,
                 governor: Optional[RetryGovernor] = None,
                 domain_of: Optional[Callable[[str], Optional[str]]]
                 = None) -> None:
        if not fleet:
            raise ValueError("campaign needs at least one device")
        names = [record.name for record in fleet]
        if len(set(names)) != len(names):
            raise ValueError("duplicate device names: %r" % names)
        self.server = server
        self.fleet = list(fleet)
        self.policy = policy or RolloutPolicy()
        #: Retry schedule between per-device attempts.  None preserves
        #: the legacy behaviour: ``policy.max_attempts`` back-to-back
        #: tries, no backoff, no quarantine.
        self.retry = retry
        #: How each wave's devices are driven; pass a
        #: :class:`~repro.fleet.executor.SerialWaveExecutor` of your own
        #: to attach executor metrics or a scrape hook.
        self.executor = executor or SerialWaveExecutor()
        #: Optional :class:`~repro.obs.MetricsRegistry` observing
        #: per-wave timings and outcome counters.  Purely additive: the
        #: :class:`CampaignReport` stays bit-identical with or without
        #: a registry attached.
        self.metrics = metrics
        #: Optional :class:`~repro.obs.slo.FleetTelemetry`.  When
        #: attached, the executor scrapes every device's registry as it
        #: finishes, each wave closes with a health + SLO verdict, and
        #: breaches steer the rollout (slow / pause / abort) — see
        #: :meth:`run`.  Scrapes and analysis are pure reads of already
        #: -spent virtual time, so a telemetry-on campaign with no
        #: breach produces a byte-identical report to a telemetry-off
        #: one.
        self.telemetry = telemetry
        if telemetry is not None:
            self.executor.scrape = telemetry.scrape_record
        #: Write-ahead journal (crash-safe durability); None = volatile.
        self.journal = journal
        #: Retry-storm governor; None = ungoverned (legacy behaviour).
        self.governor = governor
        #: Device name -> fault-domain name (for the governor's
        #: per-domain breakers); None treats the fleet as one domain.
        self.domain_of = domain_of
        if telemetry is not None and governor is not None \
                and getattr(telemetry, "governor", None) is None:
            # Let the SLO plane's retry-storm detector trip breakers.
            telemetry.governor = governor
            telemetry.domain_of = domain_of
        #: Wave-size cap installed by a SLOW verdict (None = no cap).
        self._wave_cap: Optional[int] = None
        # -- resume state (populated by :meth:`resume`) -----------------
        self._resuming = False
        self._waves_done = 0
        self._inflight_names: Optional[List[str]] = None
        self._preseed: Dict[str, Dict[str, object]] = {}
        self._end_sha: Optional[str] = None
        self._current_wave = 0

    # -- planning -----------------------------------------------------------

    def waves(self) -> List[List[DeviceRecord]]:
        """Canary wave first, then everyone else (stable order)."""
        pending = [record for record in self.fleet
                   if record.state is DeviceState.PENDING]
        canary_count = max(1, int(len(pending)
                                  * self.policy.canary_fraction))
        return [pending[:canary_count], pending[canary_count:]]

    def _plan_waves(self):
        """Yield waves one at a time, honouring any SLOW wave cap.

        With no cap this generates exactly :meth:`waves` — canary,
        then the whole rest — so a telemetry-free (or breach-free)
        campaign runs the same waves it always has.  A SLOW verdict
        installs ``self._wave_cap``, after which the rest rolls out in
        capped slices (blast-radius control without stopping).

        On a resumed campaign the journaled-but-unclosed wave (if any)
        is replayed first, in its journaled order; after that — or
        when only closed waves were replayed — the remaining pending
        devices roll out in the usual capped slices.  The canary split
        only ever happens on wave 0 of a fresh campaign: by the time a
        resume plans waves, the canary has already been journaled.
        """
        if self._inflight_names is not None:
            by_name = {record.name: record for record in self.fleet}
            yield [by_name[name] for name in self._inflight_names]
            # Computed *after* the inflight wave ran: its members are
            # terminal by now, so pending is exactly the untouched rest.
            rest = [record for record in self.fleet
                    if record.state is DeviceState.PENDING]
        elif self._waves_done:
            rest = [record for record in self.fleet
                    if record.state is DeviceState.PENDING]
        else:
            canary, rest = self.waves()
            yield canary
        while rest:
            size = len(rest) if self._wave_cap is None \
                else max(1, min(len(rest), self._wave_cap))
            yield rest[:size]
            rest = rest[size:]

    # -- execution ------------------------------------------------------------

    def run(self) -> CampaignReport:
        """Execute the rollout for the server's latest version.

        With a :attr:`telemetry` plane attached, each finished wave is
        closed out with a :class:`~repro.obs.slo.WaveVerdict` before
        the abort check: verdict-quarantined devices are re-filed from
        failed to quarantined (and removed from the failure count — no
        double-counting), then the verdict's action steers the rollout:
        ``SLOW`` halves subsequent waves, ``PAUSE`` stops with the
        remainder left pending, ``ABORT`` cancels like a failure-rate
        abort.

        With a :attr:`journal` attached, every decision is written
        ahead: ``campaign-start``, per-wave ``wave-plan`` before any
        member is driven, ``device-outcome`` the moment each device
        lands (before the next one starts), ``wave-close`` after the
        verdict, and a ``campaign-end`` SHA-256 seal over the final
        report.  A :exc:`~repro.fleet.journal.CoordinatorKilled`
        propagates out of here; :meth:`resume` continues exactly.
        """
        target = self.server.latest_version
        report = CampaignReport(target_version=target, aborted=False)

        if self._resuming:
            self._restore_from_journal(target, report)
            self._resuming = False
        elif self.journal is not None:
            self.journal.append("campaign-start", target=target,
                                fleet=len(self.fleet))

        if not (report.aborted or report.paused):
            self._run_waves(report, target)

        if report.aborted:
            for record in self.fleet:
                if record.state is DeviceState.PENDING:
                    record.state = DeviceState.SKIPPED
                    report.skipped.append(record.name)
        elif report.paused:
            # A pause leaves the remainder PENDING: an operator can
            # resume by running the campaign again (waves() replans
            # over whatever is still pending).
            report.pending = [record.name for record in self.fleet
                              if record.state is DeviceState.PENDING]
        self._seal(report)
        return report

    def _run_waves(self, report: CampaignReport, target: int) -> None:
        """The wave loop, shared by fresh and resumed runs."""
        skip_plan_append = self._inflight_names is not None
        for wave in self._plan_waves():
            if not wave:
                continue
            wave_index = self._waves_done
            self._current_wave = wave_index
            names = [record.name for record in wave]
            report.waves.append(names)
            if self.journal is not None and not skip_plan_append:
                self.journal.append("wave-plan", wave=wave_index,
                                    names=names)
            skip_plan_append = False
            # Members already journaled by the crashed coordinator are
            # *replayed* — their journal entry stands in for the radio;
            # only the rest are actually driven (no re-flash, no second
            # token).
            preseed = {name: self._preseed.pop(name)
                       for name in names if name in self._preseed}
            to_drive = [record for record in wave
                        if record.name not in preseed]
            outcomes = (self.executor.run_wave(self._update_device,
                                               to_drive, target)
                        if to_drive else [])
            outcome_of = {record.name: outcome
                          for record, outcome in zip(to_drive, outcomes)}
            failures = 0
            wave_duration = 0.0
            # Merge strictly in wave order so aggregates (including the
            # float energy sum) come out bit-for-bit the same no matter
            # how many members came back from the journal instead.
            for record in wave:
                entry = preseed.get(record.name)
                if entry is not None:
                    if entry.get("has_outcome"):
                        report.total_bytes_over_air += \
                            int(entry["bytes_over_air"])
                        report.total_energy_mj += \
                            float(entry["energy_mj"])
                        wave_duration = max(
                            wave_duration,
                            float(entry["update_seconds"]))
                else:
                    outcome = outcome_of.get(record.name)
                    if outcome is not None:
                        report.total_bytes_over_air += \
                            outcome.bytes_over_air
                        report.total_energy_mj += outcome.total_energy_mj
                        wave_duration = max(wave_duration,
                                            outcome.total_seconds)
                report.retries += max(0, record.attempts - 1)
                report.link_interruptions += record.interruptions
                if record.state is DeviceState.UPDATED:
                    report.updated.append(record.name)
                elif record.state is DeviceState.QUARANTINED:
                    # Quarantined devices are flagged for follow-up but
                    # do not count toward the abort threshold: one dead
                    # radio must not cancel the rollout for everyone.
                    report.quarantined.append(record.name)
                else:
                    report.failed.append(record.name)
                    failures += 1
            report.wall_clock_seconds += wave_duration
            if self.metrics is not None:
                self._observe_wave(wave, failures, wave_duration)

            verdict = None
            if self.telemetry is not None:
                verdict = self._close_wave(wave, wave_index, report,
                                           preseed)
                failures -= len(verdict.quarantine)

            aborted = (failures / len(wave)
                       >= self.policy.abort_failure_rate)
            paused = False
            if verdict is not None and not aborted:
                if verdict.action is Action.ABORT:
                    aborted = True
                elif verdict.action is Action.PAUSE:
                    paused = True
                elif verdict.action is Action.SLOW:
                    remaining = sum(
                        1 for record in self.fleet
                        if record.state is DeviceState.PENDING)
                    halved = max(1, remaining // 2)
                    self._wave_cap = halved if self._wave_cap is None \
                        else max(1, min(self._wave_cap, halved))
            self._waves_done += 1
            if self.journal is not None:
                self.journal.append(
                    "wave-close", wave=wave_index,
                    duration=wave_duration, failures=failures,
                    action=(verdict.action.value
                            if verdict is not None else None),
                    quarantine=(list(verdict.quarantine)
                                if verdict is not None else []),
                    breaches=([breach.to_dict()
                               for breach in verdict.breaches]
                              if verdict is not None else []),
                    wave_cap=self._wave_cap, aborted=aborted,
                    paused=paused, governor=self._governor_snapshot())
            if aborted:
                report.aborted = True
                break
            if paused:
                report.paused = True
                break
        self._inflight_names = None

    # -- durability (journal + resume) ---------------------------------------

    @classmethod
    def resume(cls, server: UpdateServer, fleet: List[DeviceRecord],
               journal: CampaignJournal, **kwargs) -> "Campaign":
        """Resurrect a campaign from its write-ahead journal.

        The coordinator's RAM is gone; the devices persist.  Build the
        campaign over the *same* fleet (same names, same order), hand
        it the journal the dead coordinator was writing, and
        :meth:`run`: closed waves replay from the journal (nothing
        re-driven), the wave the coordinator died in re-runs with its
        already-journaled members fed from the journal, and everything
        after proceeds normally.  Because outcomes are journaled
        synchronously — each device's record lands before the next
        device starts — the set of driven devices always equals the
        set of journaled devices at the kill point: zero re-flashes,
        zero double-issued tokens, and a final report byte-identical
        to the uninterrupted run's.
        """
        campaign = cls(server, fleet, journal=journal, **kwargs)
        # Coordinator-side record fields are RAM: reset, then replay.
        for record in campaign.fleet:
            record.state = DeviceState.PENDING
            record.attempts = 0
            record.interruptions = 0
            record.last_outcome = None
        campaign._resuming = True
        return campaign

    def _restore_from_journal(self, target: int,
                              report: CampaignReport) -> None:
        """Replay the journal's valid prefix into the report and fleet."""
        by_name = {record.name: record for record in self.fleet}
        plans: List[Dict[str, object]] = []
        outcomes: Dict[int, Dict[str, Dict[str, object]]] = {}
        closes: Dict[int, Dict[str, object]] = {}
        governor_state: Optional[Dict[str, object]] = None
        saw_start = False
        for entry in self.journal.entries():
            kind = entry.get("kind")
            if kind == "campaign-start":
                saw_start = True
                if int(entry.get("target", target)) != target:
                    raise ValueError(
                        "journal is for target version %s but the "
                        "server serves %d" % (entry.get("target"),
                                              target))
            elif kind == "wave-plan":
                plans.append(entry)
            elif kind == "device-outcome":
                outcomes.setdefault(int(entry["wave"]), {})[
                    str(entry["name"])] = entry
                if entry.get("governor") is not None:
                    governor_state = entry["governor"]
            elif kind == "wave-close":
                closes[int(entry["wave"])] = entry
                if entry.get("governor") is not None:
                    governor_state = entry["governor"]
            elif kind == "campaign-end":
                self._end_sha = str(entry.get("sha256"))
        if not saw_start:
            # Nothing durable ever happened: run as a fresh campaign.
            self.journal.append("campaign-start", target=target,
                                fleet=len(self.fleet))
            return
        for plan in plans:
            wave_index = int(plan["wave"])
            names = [str(name) for name in plan["names"]]
            wave_outcomes = outcomes.get(wave_index, {})
            close = closes.get(wave_index)
            if close is None:
                # The wave the coordinator died in: re-run it, with
                # journaled members replayed instead of re-driven.
                self._inflight_names = names
                self._preseed = dict(wave_outcomes)
                for name, entry in wave_outcomes.items():
                    self._apply_entry(by_name[name], entry)
                break
            report.waves.append(names)
            for name in names:
                entry = wave_outcomes.get(name)
                if entry is None:
                    # Torn outcome line: the device stays PENDING and
                    # re-runs in a later wave — degrade, don't lie.
                    continue
                record = by_name[name]
                self._apply_entry(record, entry)
                if entry.get("has_outcome"):
                    report.total_bytes_over_air += \
                        int(entry["bytes_over_air"])
                    report.total_energy_mj += float(entry["energy_mj"])
                report.retries += max(0, record.attempts - 1)
                report.link_interruptions += record.interruptions
                if record.state is DeviceState.UPDATED:
                    report.updated.append(name)
                elif record.state is DeviceState.QUARANTINED:
                    report.quarantined.append(name)
                else:
                    report.failed.append(name)
            for name in close.get("quarantine", []):
                by_name[name].state = DeviceState.QUARANTINED
                report.failed.remove(name)
                report.quarantined.append(name)
            report.wall_clock_seconds += float(close.get("duration",
                                                         0.0))
            report.slo_breaches.extend(close.get("breaches", []))
            cap = close.get("wave_cap")
            self._wave_cap = int(cap) if cap is not None else None
            if close.get("aborted"):
                report.aborted = True
            if close.get("paused"):
                report.paused = True
            self._waves_done += 1
        if self.governor is not None and governor_state is not None:
            self.governor.load_state(governor_state)

    @staticmethod
    def _apply_entry(record: DeviceRecord,
                     entry: Dict[str, object]) -> None:
        record.state = DeviceState(str(entry["state"]))
        record.attempts = int(entry.get("attempts", 0))
        record.interruptions = int(entry.get("interruptions", 0))

    def _journal_outcome(self, record: DeviceRecord,
                         outcome: Optional[UpdateOutcome]) -> None:
        if self.journal is None:
            return
        self.journal.append(
            "device-outcome", name=record.name,
            wave=self._current_wave, state=record.state.value,
            attempts=record.attempts,
            interruptions=record.interruptions,
            has_outcome=outcome is not None,
            update_seconds=(outcome.total_seconds if outcome else 0.0),
            bytes_over_air=(outcome.bytes_over_air if outcome else 0),
            energy_mj=(outcome.total_energy_mj if outcome else 0.0),
            interrupted_phases=post_mortem_phases(record),
            governor=self._governor_snapshot())

    def _governor_snapshot(self) -> Optional[Dict[str, object]]:
        return (self.governor.state_dict()
                if self.governor is not None else None)

    def _seal(self, report: CampaignReport) -> None:
        """Append — or, on resume, verify — the campaign-end seal."""
        if self.journal is None:
            return
        sha = hashlib.sha256(
            json.dumps(report.to_dict(),
                       sort_keys=True).encode("utf-8")).hexdigest()
        if self._end_sha is not None:
            if sha != self._end_sha:
                raise ValueError("resumed report diverges from the "
                                 "journaled campaign-end seal")
            return
        self.journal.append("campaign-end", sha256=sha)

    def _close_wave(self, wave: List[DeviceRecord], wave_index: int,
                    report: CampaignReport,
                    preseed: Optional[Dict[str, Dict[str, object]]]
                    = None) -> WaveVerdict:
        """Feed the wave to the telemetry plane and apply its verdict's
        quarantine list (re-filing those devices out of ``failed``)."""
        preseed = preseed or {}
        for record in wave:
            entry = preseed.get(record.name)
            if entry is None:
                self.telemetry.observe_device(record, wave_index)
            else:
                # Replayed member: synthesize the sample the original
                # run observed from its journal entry (the device was
                # never re-driven, so its black box has nothing new).
                self.telemetry.observe_sample(DeviceSample(
                    name=record.name, wave=wave_index,
                    state=record.state.value,
                    update_seconds=float(entry.get("update_seconds",
                                                   0.0)),
                    bytes_over_air=int(entry.get("bytes_over_air", 0)),
                    energy_mj=float(entry.get("energy_mj", 0.0)),
                    interruptions=record.interruptions,
                    attempts=record.attempts,
                    interrupted_phases=dict(
                        entry.get("interrupted_phases") or {})))
        verdict = self.telemetry.close_wave(
            wave_index, t=report.wall_clock_seconds)
        for name in verdict.quarantine:
            record = next(r for r in wave if r.name == name)
            record.state = DeviceState.QUARANTINED
            report.failed.remove(name)
            report.quarantined.append(name)
        report.slo_breaches.extend(breach.to_dict()
                                   for breach in verdict.breaches)
        return verdict

    def _observe_wave(self, wave: List[DeviceRecord], failures: int,
                      wave_duration: float) -> None:
        from ..obs.metrics import WAVE_SECONDS_BUCKETS

        self.metrics.counter("campaign.waves").inc()
        self.metrics.counter("campaign.devices_updated").inc(
            sum(1 for record in wave
                if record.state is DeviceState.UPDATED))
        self.metrics.counter("campaign.devices_failed").inc(failures)
        self.metrics.histogram("campaign.wave_seconds",
                               WAVE_SECONDS_BUCKETS).observe(wave_duration)

    def _update_device(self, record: DeviceRecord,
                       target: int) -> Optional[UpdateOutcome]:
        attempts = (self.retry.max_attempts if self.retry is not None
                    else self.policy.max_attempts)
        transport_retry = (self.retry.transport_retry
                           if self.retry is not None else None)
        domain = (self.domain_of(record.name)
                  if self.domain_of is not None else None)
        last: Optional[UpdateOutcome] = None
        shed = False
        for attempt in range(1, attempts + 1):
            attempt_retry = transport_retry
            if self.governor is not None:
                decision = self._admit(domain, record,
                                       retry=attempt > 1)
                if decision is None:
                    shed = True
                    break
                if decision.caution:
                    # Probing a suspect domain: a short transport
                    # budget instead of the full resume siege.
                    attempt_retry = CAUTION_TRANSPORT_RETRY
            last = drive_attempt(self.server, record, target,
                                 attempt_retry)
            if self.governor is not None:
                self.governor.note_outcome(
                    domain, record.device.clock.now,
                    success=record.state is DeviceState.UPDATED,
                    interruptions=last.interruptions)
            if record.state is DeviceState.UPDATED:
                break
            if self.retry is not None and attempt < attempts:
                # Wait out the (virtual) backoff on the device's own
                # clock before the next attempt.
                record.device.clock.advance(
                    self.retry.delay(attempt, record.name), "backoff")
        if record.state is not DeviceState.UPDATED:
            if shed:
                # Governor shed the attempt: the device is deferred
                # for later remediation with zero further backhaul —
                # quarantined, not failed, so the storm cannot also
                # trip the campaign's failure-rate abort.
                record.state = DeviceState.QUARANTINED
            else:
                finalize_failed(record, self.retry)
        self._journal_outcome(record, last)
        return last

    def _admit(self, domain: Optional[str], record: DeviceRecord,
               retry: bool):
        """Gate one attempt through the governor, waiting out breaker
        defers on the device's own virtual clock.  Returns the
        allowing :class:`~repro.fleet.budget.Decision`, or None to
        shed."""
        for _ in range(64):
            decision = self.governor.admit(domain,
                                           record.device.clock.now,
                                           retry=retry)
            if decision.allow:
                return decision
            if decision.shed:
                return None
            wait = decision.defer_until - record.device.clock.now
            if wait <= 0.0:  # defensive: a defer must make progress
                return None
            record.device.clock.advance(wait, "governor-defer")
        return None

    # -- introspection -----------------------------------------------------------

    def states(self) -> Dict[str, DeviceState]:
        return {record.name: record.state for record in self.fleet}
