"""The benchmark's three workloads, driven through the public serving API.

Every workload is a fixed amount of work generated from ``--seed`` and
sized from ``--seconds`` (so a run lasts up to about that long on a
2-core Xeon): inputs never depend on timing, which keeps the simulated
CiM counters exactly repeatable.  The user population (profiles and
training buffers) is the same for every seed; the seed draws the
traffic.  Each workload builds its system from scratch in
:meth:`Workload.setup` (pretraining, engine, user tuning and warm-up),
runs its timed phase in :meth:`Workload.run`, and checks every answer
against a companion engine in :meth:`Workload.check`.  Why each workload
exists is recorded in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (FrameworkConfig, GatewayClient, GatewayConfig,
                   PromptGateway, PromptServeEngine, QueryRequest,
                   SessionStore, TuneRequest, build_corpus, build_model,
                   build_tokenizer, make_dataset, make_user)
from repro.gateway.client import GatewayError, RetryPolicy
from repro.llm import (GenerationConfig, PretrainConfig, SpeculativeDecoder,
                       build_draft_model, distill_draft, pretrain_lm)

__all__ = ["WORKLOADS", "Phase"]

PRETRAIN_STEPS = 60
SAMPLES_PER_BUFFER = 10           # the "fast" preset's buffer capacity
WARMUP_BATCHES = 3
SPIN_S = 0.002                    # open-loop driver spins before a due time
COLD_PROBES = 40                  # spill/restore probes after the timed phase
DISTILL_PROMPTS = ("the movie was", "a quiet morning", "science fiction story",
                   "my favorite recipe", "breaking news today",
                   "the weather is", "he opened the door", "in the beginning")


def zipf(n: int, alpha: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** alpha
    return weights / weights.sum()


def user_texts(seed: int, user_id: int, count: int, label: int) -> list[str]:
    """``count`` query texts in ``user_id``'s own style (seeded)."""
    if count <= 0:
        return []
    samples = make_dataset("LaMP-2").generate(
        make_user(user_id), count, seed=seed * 7919 + label)
    return [sample.input_text for sample in samples]


def tune_buffer(user_id: int, round_: int = 0) -> tuple:
    """Training buffer number ``round_`` of ``user_id`` (seed-independent)."""
    return tuple(make_dataset("LaMP-2").generate(
        make_user(user_id), SAMPLES_PER_BUFFER,
        seed=1000 * (round_ + 1) + user_id))


def query_stream(rng: np.random.Generator, seed: int, users: list[int],
                 weights: np.ndarray, count: int, label: int,
                 repeat_share: float = 0.5) -> list[tuple[int, str]]:
    """Zipf-skewed (user, text) pairs; ``repeat_share`` of them repeat an
    earlier pair of the same user."""
    picks = []
    fresh = {user: 0 for user in users}
    for _ in range(count):
        user = users[rng.choice(len(users), p=weights)]
        if fresh[user] and rng.random() < repeat_share:
            picks.append((user, int(rng.integers(fresh[user]))))
        else:
            picks.append((user, fresh[user]))
            fresh[user] += 1
    texts = {user: user_texts(seed, user, fresh[user], label + user)
             for user in users}
    return [(user, texts[user][index]) for user, index in picks]


def base_model():
    """Tokenizer and the pretrained phi-2-sim base every workload serves."""
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, build_corpus(tok, n_sentences=400, seed=0),
                PretrainConfig(steps=PRETRAIN_STEPS, seed=0))
    return tok, model


def answer_key(response) -> tuple:
    return (response.answer, response.ovt_index, response.scores)


@dataclass
class Phase:
    """What one timed phase observed (all times in seconds)."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    tokens: int = 0
    completed: int = 0
    failed: int = 0
    tunes: list[float] = field(default_factory=list)
    colds: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)   # due -> admit
    windows: list[tuple[float, float]] = field(default_factory=list)
    requests: dict[str, tuple[float, float]] = field(
        default_factory=dict)                          # rid -> (send, answer)
    answers: list[tuple] = field(default_factory=list)  # (key, QueryResponse)
    stats0: dict = field(default_factory=dict)
    stats1: dict = field(default_factory=dict)
    gateway_rejected: int = 0
    gateway_requests: int = 0

    def delta(self, key: str) -> float:
        return self.stats1[key] - self.stats0[key]


class Workload:
    """Shared set-up pieces; subclasses define the traffic."""

    name = ""
    users: list[int] = []
    generation = GenerationConfig(max_new_tokens=16, temperature=0.0,
                                  eos_id=None)

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.rng = np.random.default_rng([seed, len(self.name)])
        self.setup_tunes: list[float] = []
        self.warmup: list[tuple[float, float]] = []   # (batch_s, admit_s)

    def _engine(self, model, tok, config, max_sessions, **kwargs):
        store = SessionStore(tempfile.mkdtemp(dir=self.scratch))
        return PromptServeEngine(model, tok, config,
                                 max_sessions=max_sessions,
                                 session_store=store, **kwargs)

    def _tune(self, engine, user: int, round_: int = 0) -> float:
        """submit a full buffer -> OVTs programmed; returns seconds."""
        start = time.perf_counter()
        engine.submit(TuneRequest(user_id=user,
                                  samples=tune_buffer(user, round_)))
        engine.session(user).deployment()
        return time.perf_counter() - start

    def _warm(self, engine, per_batch: int) -> None:
        """Serve a few fixed batches so one-time costs land in set-up."""
        texts = {user: user_texts(0, user, WARMUP_BATCHES, 900)
                 for user in self.users}
        self.warmup = []
        for batch in range(WARMUP_BATCHES):
            start = time.perf_counter()
            pendings = [engine.begin_query(QueryRequest(
                user_id=user, text=texts[user][batch],
                generation=self.generation))
                for user in (self.users * per_batch)[:per_batch]]
            admitted = time.perf_counter()
            while not all(p.done for p in pendings):
                engine.run_decode_round()
            self.warmup.append((time.perf_counter() - start,
                                admitted - start))

    def close(self, system) -> None:
        engine = system["engine"]
        directory = engine.session_store.directory
        shutil.rmtree(directory, ignore_errors=True)

    def primary(self, phase: Phase) -> list[float]:
        """The latencies the trace accounting explains."""
        return phase.latencies

    def probe(self, system) -> tuple[list[float], int]:
        """Cold-query probe: (latencies, mismatches); none by default."""
        return [], 0

    def _probe_pairs(self) -> list[tuple[int, str]]:
        """COLD_PROBES (user, text) pairs the phase already answered,
        cycling over the users."""
        first = {}
        for user, text in self.stream:
            first.setdefault(user, text)
        users = sorted(first)
        return [(users[i % len(users)], first[users[i % len(users)]])
                for i in range(COLD_PROBES)]

    def check(self, system, phase: Phase) -> int:
        """Mismatches between each answer and the sequential answer of a
        companion engine serving the same libraries."""
        companion = PromptServeEngine(system["model"], system["tok"],
                                      system["engine"].config,
                                      max_sessions=len(self.users))
        for user, library in self.libraries.items():
            companion.load_session(user, library)
        memo = {}
        mismatches = 0
        for (user, text), response in phase.answers:
            if (user, text) not in memo:
                memo[user, text] = answer_key(companion.query(QueryRequest(
                    user_id=user, text=text, generation=self.generation)))
            mismatches += answer_key(response) != memo[user, text]
        return mismatches


class ServePoisson(Workload):
    """Open loop: seeded Poisson arrivals from 8 resident Zipf users."""

    name = "serve_poisson"
    users = list(range(8))
    rate_rps = 28.0

    def __init__(self, seed, seconds, scratch):
        super().__init__(seed, scratch)
        count = int(round(self.rate_rps * seconds))
        # A Poisson process conditioned on its count: sorted uniforms.
        self.due = np.sort(self.rng.uniform(0.0, seconds, count))
        self.stream = query_stream(self.rng, seed, self.users,
                                   zipf(len(self.users), 1.1), count, 100)

    def setup(self):
        tok, model = base_model()
        engine = self._engine(model, tok, FrameworkConfig.preset("fast"), 8)
        self.libraries = {}
        for user in self.users:
            self.setup_tunes.append(self._tune(engine, user))
            self.libraries[user] = engine.session(user).library
        self._warm(engine, 16)
        return {"engine": engine, "model": model, "tok": tok}

    def _serve(self, engine, requests, due_at):
        """Admit each request when due; decode rounds in between."""
        pending, done = {}, []
        index = 0
        while index < len(requests) or pending:
            now = time.perf_counter()
            while index < len(requests) and due_at[index] <= now:
                admit = time.perf_counter()
                pending[index] = (engine.begin_query(requests[index]), admit)
                index += 1
            if not pending:
                # Sleep until just before the next arrival and spin the
                # rest: a late OS wake-up is the generator's delay, not
                # the engine's latency.
                time.sleep(max(0.0, due_at[index] - SPIN_S
                               - time.perf_counter()))
                while time.perf_counter() < due_at[index]:
                    pass
                continue
            engine.run_decode_round()
            finished = time.perf_counter()
            for key in [k for k, (p, _) in pending.items() if p.done]:
                handle, admit = pending.pop(key)
                done.append((key, handle, admit, finished))
        return done

    def run(self, system) -> Phase:
        engine = system["engine"]
        requests = [QueryRequest(user_id=user, text=text,
                                 generation=self.generation,
                                 request_id=f"q{i}")
                    for i, (user, text) in enumerate(self.stream)]
        phase = Phase(stats0=engine.stats())
        start = time.perf_counter()
        done = self._serve(engine, requests, start + self.due)
        phase.wall_s = max(end for *_, end in done) - start
        phase.stats1 = engine.stats()
        for key, handle, admit, finished in sorted(done,
                                                   key=lambda d: d[0]):
            due = start + self.due[key]
            phase.latencies.append(finished - due)
            phase.waits.append(admit - due)
            phase.windows.append((due, finished))
            phase.answers.append((self.stream[key], handle.response))
            if handle.finish_reason != "length":
                phase.failed += 1
        phase.completed = len(done)
        phase.tokens = phase.completed * self.generation.max_new_tokens
        self.reference = {key: response for key, response in phase.answers}
        return phase

    def probe(self, system) -> tuple[list[float], int]:
        """Cold queries: drop (spill) a user, then query it (restore)."""
        engine = system["engine"]
        colds, mismatches = [], 0
        for user, text in self._probe_pairs():
            start = time.perf_counter()
            engine.drop_session(user)
            handle = engine.begin_query(QueryRequest(
                user_id=user, text=text, generation=self.generation))
            while not handle.done:
                engine.run_decode_round()
            colds.append(time.perf_counter() - start)
            mismatches += answer_key(handle.response) != answer_key(
                self.reference[user, text])
        return colds, mismatches


class HttpEdge(Workload):
    """Closed loop: two keep-alive clients over loopback, int8 + draft."""

    name = "http_edge"
    users = list(range(4))
    requests_per_s = 60.0     # nominal pace used only to size the work

    def __init__(self, seed, seconds, scratch):
        super().__init__(seed, scratch)
        per_client = int(round(self.requests_per_s * seconds / 2))
        # Each client owns disjoint users, so every user's request order
        # (and with it each prefill hit and crossbar read) is seeded.  A
        # caller repeats itself more often than the open-loop population,
        # which also keeps the sequential answer check affordable.
        self.clients = [
            query_stream(self.rng, seed, self.users[c::2], zipf(2, 1.1),
                         per_client, 200 + 10 * c, repeat_share=0.75)
            for c in range(2)]
        self.stream = [pair for stream in self.clients for pair in stream]

    def setup(self):
        tok, model = base_model()
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        distill_draft(draft, model,
                      [np.asarray(tok.encode(t), dtype=np.int64)
                       for t in DISTILL_PROMPTS],
                      max_new_tokens=24,
                      pretrain=PretrainConfig(steps=150, seed=1))
        config = FrameworkConfig.preset("fast", base_quantization="int8")
        engine = self._engine(
            model, tok, config, len(self.users),
            speculative=SpeculativeDecoder(draft, max_draft=6,
                                           threshold=0.3))
        self.libraries = {}
        for user in self.users:
            self.setup_tunes.append(self._tune(engine, user))
            self.libraries[user] = engine.session(user).library
        self._warm(engine, 2)
        gateway = PromptGateway(engine, GatewayConfig(
            port=0, max_queue=8, max_batch=2)).start()
        host, port = gateway.address
        clients = [GatewayClient(host, port, pool_size=1, seed=c,
                                 retry=RetryPolicy(max_attempts=1))
                   for c in range(2)]
        for client in clients:
            client.health()   # opens the keep-alive connection
        return {"engine": engine, "model": model, "tok": tok,
                "gateway": gateway, "clients": clients}

    def close(self, system) -> None:
        for client in system["clients"]:
            client.close()
        time.sleep(0.1)   # let the connection handlers see EOF first
        system["gateway"].stop()
        super().close(system)

    def _client_loop(self, client, stream, label, results):
        for i, (user, text) in enumerate(stream):
            rid = f"c{label}-{i}"
            send = time.perf_counter()
            try:
                response = client.query(user, text,
                                        generation=self.generation,
                                        request_id=rid)
            except GatewayError:
                response = None
            results.append(((user, text), rid, send, time.perf_counter(),
                            response))

    def run(self, system) -> Phase:
        engine, gateway = system["engine"], system["gateway"]
        phase = Phase(stats0=engine.stats())
        rejected0, http0 = gateway.rejected, gateway.http_requests
        results = [[] for _ in self.clients]
        threads = [threading.Thread(target=self._client_loop,
                                    args=(client, stream, c, results[c]))
                   for c, (client, stream) in enumerate(
                       zip(system["clients"], self.clients))]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.stats1 = engine.stats()
        phase.gateway_rejected = gateway.rejected - rejected0
        phase.gateway_requests = gateway.http_requests - http0
        flat = [r for client_results in results for r in client_results]
        phase.wall_s = max(r[3] for r in flat) - start
        for key, rid, send, received, response in flat:
            phase.requests[rid] = (send, received)
            if response is None:
                phase.failed += 1
                continue
            phase.latencies.append(received - send)
            phase.windows.append((send, received))
            phase.answers.append((key, response))
        phase.completed = len(phase.answers)
        phase.tokens = phase.completed * self.generation.max_new_tokens
        self.reference = {key: response for key, response in phase.answers}
        return phase

    def probe(self, system) -> tuple[list[float], int]:
        """Cold queries over HTTP right after an explicit spill."""
        engine, client = system["engine"], system["clients"][0]
        colds, mismatches = [], 0
        for user, text in self._probe_pairs():
            start = time.perf_counter()
            engine.drop_session(user)
            try:
                response = client.query(user, text,
                                        generation=self.generation)
            except GatewayError:
                mismatches += 1
                continue
            colds.append(time.perf_counter() - start)
            mismatches += answer_key(response) != answer_key(
                self.reference[user, text])
        return colds, mismatches


class PersonalizeChurn(Workload):
    """The write path: more users than resident slots, retunes, spills."""

    name = "personalize_churn"
    users = list(range(12))
    max_sessions = 5
    generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                  eos_id=None)
    # Per 20 s of --seconds: 12 first tunes, 28 retunes and 280 queries,
    # about 100 of them to a spilled user.  Retunes outnumber first
    # tunes so the tune median sits inside one group, not between two.
    retunes_per_20s = 28
    queries_per_20s = 280

    def __init__(self, seed, seconds, scratch):
        super().__init__(seed, scratch)
        scale = seconds / 20.0
        n_queries = max(len(self.users), int(round(self.queries_per_20s
                                                   * scale)))
        # The access pattern (which user, which query repeats, where the
        # retunes fall) is the same for every seed, so every seed evicts,
        # spills and restores the same way; the seed draws the texts.
        pattern = np.random.default_rng([0, len(self.name)])
        stream = query_stream(pattern, seed, self.users,
                              zipf(len(self.users), 0.9), n_queries, 300)
        retune = set(pattern.choice(
            n_queries, size=min(n_queries, int(round(
                self.retunes_per_20s * scale))), replace=False).tolist())
        # ops: ("tune", user, round) | ("query", user, text); a user's
        # first tune precedes its first query, and a retune directly
        # follows one of its queries (the user is resident then).
        self.ops, rounds = [], {}
        for index, (user, text) in enumerate(stream):
            if user not in rounds:
                rounds[user] = 0
                self.ops.append(("tune", user, 0))
            self.ops.append(("query", user, text))
            if index in retune:
                rounds[user] += 1
                self.ops.append(("tune", user, rounds[user]))

    def setup(self):
        tok, model = base_model()
        engine = self._engine(model, tok, FrameworkConfig.preset("fast"),
                              self.max_sessions)
        self._warm_churn(engine)
        return {"engine": engine, "model": model, "tok": tok}

    def _warm_churn(self, engine) -> None:
        """Tune, query and spill one throw-away user so first-call costs
        (autograd, codec, disk) land in set-up."""
        warm_user = 10_000
        start = time.perf_counter()
        self.setup_tunes.append(self._tune(engine, warm_user))
        request = QueryRequest(user_id=warm_user, text=user_texts(
            0, warm_user, 1, 900)[0], generation=self.generation)
        engine.query(request)
        engine.drop_session(warm_user)
        engine.query(request)
        engine.drop_session(warm_user, spill=False)
        self.warmup = [(time.perf_counter() - start, 0.0)]

    def run(self, system) -> Phase:
        engine = system["engine"]
        phase = Phase(stats0=engine.stats())
        self.versions = {}   # (user, round) -> library copy
        current = {}
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if op[0] == "tune":
                _, user, round_ = op
                phase.tunes.append(self._tune(engine, user, round_))
                current[user] = round_
                self.versions[(user, round_)] = copy.deepcopy(
                    engine.session(user).library)
                continue
            _, user, text = op
            cold = not engine.has_session(user)
            request = QueryRequest(user_id=user, text=text,
                                   generation=self.generation,
                                   request_id=f"q{i}")
            began = time.perf_counter()
            response = engine.query(request)
            ended = time.perf_counter()
            phase.latencies.append(ended - began)
            if cold:
                phase.colds.append(ended - began)
                phase.windows.append((began, ended))
            phase.answers.append(((user, current[user], text), response))
        phase.wall_s = time.perf_counter() - start
        phase.stats1 = engine.stats()
        phase.completed = len(phase.answers) + len(phase.tunes)
        phase.tokens = len(phase.answers) * self.generation.max_new_tokens
        return phase

    def primary(self, phase: Phase) -> list[float]:
        return phase.colds

    def check(self, system, phase: Phase) -> int:
        """Restored answers equal pre-spill ones, and every answer equals
        a companion engine's sequential answer at that library version."""
        first, mismatches = {}, 0
        for key, response in phase.answers:
            mismatches += answer_key(response) != first.setdefault(
                key, answer_key(response))
        companion = PromptServeEngine(system["model"], system["tok"],
                                      system["engine"].config,
                                      max_sessions=1)
        for (user, round_), library in self.versions.items():
            companion.load_session(user, library)
            for (u, r, text), expected in first.items():
                if (u, r) == (user, round_):
                    mismatches += answer_key(companion.query(QueryRequest(
                        user_id=u, text=text,
                        generation=self.generation))) != expected
            companion.drop_session(user, spill=False)
        return mismatches


WORKLOADS = {cls.name: cls
             for cls in (ServePoisson, HttpEdge, PersonalizeChurn)}
