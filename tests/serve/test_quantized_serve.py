"""Serving on a weight-quantized base model: determinism, stats, config."""

import copy
import dataclasses

import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (
    GenerationConfig,
    PretrainConfig,
    SpeculativeDecoder,
    build_draft_model,
    build_model,
    pretrain_lm,
)
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    ShardedPromptEngine,
    TuneRequest,
)
from repro.serve.stats_manifest import STATS_MANIFEST

USERS = (0, 1, 2)
QUANT_KEYS = ("quantized_layers", "weight_bytes", "weight_bytes_saved")


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def quant_config():
    return FrameworkConfig.preset("fast").replace(base_quantization="int8")


def trace(tok):
    generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                  eos_id=tok.eos_id)
    ds = make_dataset("LaMP-2")
    tunes, queries = [], []
    for uid in USERS:
        samples = ds.generate(make_user(uid, seed=0), 10, seed=uid)
        tunes.append(TuneRequest(user_id=uid, samples=tuple(samples)))
        text = ds.generate(make_user(uid, seed=0), 12, seed=42)[-1].input_text
        queries.append(QueryRequest(user_id=uid, text=text,
                                    generation=generation))
    return tunes, queries


def serve_trace(engine, tok):
    tunes, queries = trace(tok)
    for request in tunes:
        engine.submit(request)
    return [r.answer for r in engine.answer_batch(queries)]


class TestQuantizedServing:
    def test_restart_byte_identity(self, setup):
        model, tok = setup
        first = serve_trace(
            PromptServeEngine(copy.deepcopy(model), tok, quant_config(),
                              max_sessions=4), tok)
        second = serve_trace(
            PromptServeEngine(copy.deepcopy(model), tok, quant_config(),
                              max_sessions=4), tok)
        assert first == second

    def test_sharded_matches_single_engine(self, setup):
        model, tok = setup
        single = serve_trace(
            PromptServeEngine(copy.deepcopy(model), tok, quant_config(),
                              max_sessions=8), tok)
        sharded = serve_trace(
            ShardedPromptEngine(copy.deepcopy(model), tok, quant_config(),
                                n_workers=3, max_sessions=4), tok)
        assert sharded == single

    def test_stats_keys_emitted_and_declared(self, setup):
        model, tok = setup
        engine = PromptServeEngine(copy.deepcopy(model), tok, quant_config())
        stats = engine.stats()
        for key in QUANT_KEYS:
            assert key in STATS_MANIFEST
            assert STATS_MANIFEST[key] == "structural"
        assert stats["quantized_layers"] > 0
        assert stats["weight_bytes"] > 0
        assert stats["weight_bytes_saved"] > 0

    def test_float_engine_reports_zero_footprint(self, setup):
        model, tok = setup
        stats = PromptServeEngine(copy.deepcopy(model), tok,
                                  FrameworkConfig.preset("fast")).stats()
        assert all(stats[key] == 0 for key in QUANT_KEYS)

    def test_sharded_reports_shared_model_once(self, setup):
        model, tok = setup
        sharded = ShardedPromptEngine(copy.deepcopy(model), tok,
                                      quant_config(), n_workers=3)
        stats = sharded.stats()
        # structural, from worker 0 — NOT summed across the fleet
        assert stats["weight_bytes"] == stats["workers"][0]["weight_bytes"]
        assert all(worker["weight_bytes"] == stats["weight_bytes"]
                   for worker in stats["workers"])

    def test_shared_model_converts_once_across_workers(self, setup):
        model, tok = setup
        shared = copy.deepcopy(model)
        sharded = ShardedPromptEngine(shared, tok, quant_config(),
                                      n_workers=4)
        single = PromptServeEngine(shared, tok, quant_config())
        assert (single.stats()["quantized_layers"]
                == sharded.stats()["quantized_layers"])


class TestQuantizedSpeculative:
    @pytest.mark.parametrize("mode", ["int8", "int4"])
    def test_batched_and_speculative_match_sequential(self, setup, mode):
        """answer_batch over a packed base — plain rounds and speculative
        rounds with a packed draft — equals the sequential reference."""
        model, tok = setup
        config = FrameworkConfig.preset("fast").replace(
            base_quantization=mode)
        generation = GenerationConfig(max_new_tokens=10, temperature=0.0,
                                      eos_id=tok.eos_id)
        tunes, queries = trace(tok)
        queries = [dataclasses.replace(query, generation=generation)
                   for query in queries]

        def answers(batched, speculative=None):
            engine = PromptServeEngine(copy.deepcopy(model), tok, config,
                                       max_sessions=4,
                                       speculative=speculative)
            for request in tunes:
                engine.submit(request)
            return [response.answer for response
                    in engine.answer_batch(queries, batched=batched)]

        sequential = answers(batched=False)
        assert answers(batched=True) == sequential
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        spec = SpeculativeDecoder(draft, max_draft=3, threshold=0.0)
        assert answers(batched=True, speculative=spec) == sequential

    def test_speculative_answers_match_plain_quantized(self, setup):
        model, tok = setup
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        plain = serve_trace(
            PromptServeEngine(copy.deepcopy(model), tok, quant_config(),
                              max_sessions=4), tok)
        spec = SpeculativeDecoder(copy.deepcopy(draft), max_draft=3,
                                  threshold=0.1)
        speculative = serve_trace(
            PromptServeEngine(copy.deepcopy(model), tok, quant_config(),
                              max_sessions=4, speculative=spec), tok)
        assert speculative == plain

    def test_draft_model_is_quantized_alongside_base(self, setup):
        model, tok = setup
        from repro.llm import quantization_stats
        draft = build_draft_model("phi-2-sim", tok.vocab_size)
        spec = SpeculativeDecoder(draft, max_draft=3)
        PromptServeEngine(copy.deepcopy(model), tok, quant_config(),
                          speculative=spec)
        assert quantization_stats(spec.draft_model)["quantized_layers"] > 0


class TestConfigPlumbing:
    def test_round_trip_and_back_compat(self):
        config = quant_config()
        assert FrameworkConfig.from_dict(config.to_dict()) == config
        legacy = {key: value
                  for key, value in FrameworkConfig().to_dict().items()
                  if key not in ("base_quantization",
                                 "quantization_group_size")}
        restored = FrameworkConfig.from_dict(legacy)
        assert restored.base_quantization is None
        assert restored.quantization_group_size == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameworkConfig(base_quantization="int2")
        with pytest.raises(ValueError):
            FrameworkConfig(quantization_group_size=0)
