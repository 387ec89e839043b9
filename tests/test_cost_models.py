import numpy as np
import pytest

from avenas import kernels, supernet
from avenas.cost_models import (
    LatencyTable, LatencyTableError, REFERENCE_ARCHS, SYNTHETIC_MS_PER_MAC,
    SYNTHETIC_OVERHEAD_MS, count_flops, early_head_mflops, load_latency_table,
    load_reference_arch, score_arch, synthetic_latency_table,
)
from avenas.supernet import (
    DiscreteEncoder, SampledArch, SupernetSpec, VIEWS, block_macs, paper_spec, toy_spec,
)
from avenas.tensor_core import Tensor

from helpers import micro_spec, random_arch

PUBLISHED_TOTALS = {"ave_s": 174.75, "ave_m": 306.93, "ave_l": 605.14}


def uniform_arch(spec, op, scale, res=None):
    ops, scales = {}, {}
    for view, branch, i, *_ in spec.blocks():
        ops.setdefault((view, branch), []).append(op)
        scales.setdefault((view, branch), []).append(scale)
    r = res or spec.search_space.resolutions[0]
    return SampledArch(operators=ops, channel_scales=scales,
                       resolutions={v: r for v in VIEWS})


# ---------------------------------------------------------------------------
# latency table ingestion
# ---------------------------------------------------------------------------

def test_load_empty_body(tmp_path):
    p = tmp_path / "lut.csv"
    p.write_text("view,branch,block,op,scale,resolution,latency_ms\n")
    lut = load_latency_table(p)
    assert lut.entries == {}


def test_load_single_row_roundtrip(tmp_path):
    p = tmp_path / "lut.csv"
    p.write_text("view,branch,block,op,scale,resolution,latency_ms\n"
                 "mouth,latent,0,conv,0.53125,64,1.25\n")
    lut = load_latency_table(p)
    assert lut.query("mouth", "latent", 0, "conv", 0.53125, 64) == 1.25


def test_load_duplicate_key_names_both_rows(tmp_path):
    p = tmp_path / "lut.csv"
    p.write_text("view,branch,block,op,scale,resolution,latency_ms\n"
                 "mouth,latent,0,conv,0.5,64,1.0\n"
                 "mouth,latent,0,conv,0.5,64,2.0\n")
    with pytest.raises(LatencyTableError) as e:
        load_latency_table(p)
    assert ":3" in str(e.value) and "row 2" in str(e.value)


def test_load_rejects_bad_header_and_values(tmp_path):
    p = tmp_path / "lut.csv"
    p.write_text("view,branch,block,op,scale,res,latency_ms\n")
    with pytest.raises(LatencyTableError, match="header"):
        load_latency_table(p)
    p.write_text("view,branch,block,op,scale,resolution,latency_ms\n"
                 "mouth,latent,0,conv,0.5,64,-1.0\n")
    with pytest.raises(LatencyTableError, match="negative"):
        load_latency_table(p)
    p.write_text("view,branch,block,op,scale,resolution,latency_ms\n"
                 "mouth,latent,zero,conv,0.5,64,1.0\n")
    with pytest.raises(LatencyTableError, match=":2"):
        load_latency_table(p)


@pytest.mark.parametrize("ms", ["nan", "inf"])
def test_load_rejects_non_finite_latency(tmp_path, ms):
    p = tmp_path / "lut.csv"
    p.write_text("view,branch,block,op,scale,resolution,latency_ms\n"
                 "mouth,latent,0,conv,0.5,64,1.0\n"
                 f"mouth,latent,1,conv,0.5,64,{ms}\n")
    with pytest.raises(LatencyTableError, match=f"^{p}:3: .*finite.*{ms}$"):
        load_latency_table(p)


def test_missing_entry_named(tmp_path):
    lut = LatencyTable(entries={})
    with pytest.raises(LatencyTableError, match="mouth"):
        lut.query("mouth", "latent", 0, "conv", 0.5, 64)


def test_synthetic_table_covers_space_and_roundtrips(tmp_path):
    spec = toy_spec()
    lut = synthetic_latency_table(spec)
    lut.validate_coverage(spec)
    p = tmp_path / "lut.csv"
    lut.save(p)
    back = load_latency_table(p)
    assert back.entries == lut.entries
    incomplete = LatencyTable(entries=dict(list(lut.entries.items())[:-1]))
    with pytest.raises(LatencyTableError, match="misses"):
        incomplete.validate_coverage(spec)


# ---------------------------------------------------------------------------
# latency scoring
# ---------------------------------------------------------------------------

def test_score_arch_zero_cost_entries():
    spec = toy_spec()
    arch = uniform_arch(spec, "skip", 0.5)
    lut = LatencyTable(entries={k: 0.0 for k in synthetic_latency_table(spec).entries})
    assert score_arch(spec, arch, lut) == 0.0


def test_score_arch_sums_entries():
    spec = toy_spec()
    arch = random_arch(spec, np.random.default_rng(0))
    lut = synthetic_latency_table(spec)
    want = sum(lut.query(v, b, i, arch.op_at(v, b, i), arch.scale_at(v, b, i),
                         arch.resolutions[v])
               for v, b, i, *_ in spec.blocks())
    assert score_arch(spec, arch, lut) == want


def test_score_three_known_entries():
    spec = toy_spec()
    arch = uniform_arch(spec, "conv", 0.5)
    entries = {}
    vals = iter([1.0, 2.0, 3.0] * 100)
    total = 0.0
    for v, b, i, *_ in spec.blocks():
        x = next(vals)
        entries[(v, b, i, "conv", 0.5, arch.resolutions[v])] = x
        total += x
    lut = LatencyTable(entries=entries)
    assert score_arch(spec, arch, lut) == pytest.approx(total, rel=1e-15)


# ---------------------------------------------------------------------------
# FLOPs counting
# ---------------------------------------------------------------------------

def test_single_conv_nine_macs():
    macs, h = block_macs("conv", 1, 1, 1, 1)
    assert macs == 9 and h == 1


def test_all_skip_matching_dims_zero_searchable_flops():
    spec = SupernetSpec(
        search_space=toy_spec().search_space,
        stem_channels=8,
        backbone_channels=(8, 8), backbone_strides=(1, 1),
        latent_channels=(8,) * 6, latent_strides=(1,) * 6,
        gaze_channels=(8,) * 6, gaze_strides=(1,) * 6,
        keypoint_channels=(8, 8), keypoint_strides=(1, 1),
        latent_feat_dim=8, z_dim=8, n_keypoints=4, early_channels=2)
    arch = uniform_arch(spec, "skip", 1.0)
    rep = count_flops(arch, spec)
    assert all(v == 0.0 for v in rep.branches.values())
    assert all(v > 0.0 for k, v in rep.fixed.items())
    assert rep.total_mflops == pytest.approx(sum(rep.fixed.values()))


def test_halving_scales_quarters_interior_conv_macs():
    spec = toy_spec(channel_scales=(0.5, 1.0))
    full = count_flops(uniform_arch(spec, "conv", 1.0, res=16), spec)
    half = count_flops(uniform_arch(spec, "conv", 0.5, res=16), spec)
    for key in full.branches:
        if key.endswith("/backbone"):
            continue  # first backbone block keeps its fixed-width stem input
        assert half.branches[key] == pytest.approx(full.branches[key] / 4, rel=1e-12)


def test_halving_scales_quarters_fused_blocks_too():
    spec = toy_spec(channel_scales=(0.5, 1.0))
    full = count_flops(uniform_arch(spec, "fuse-mb", 1.0, res=16), spec)
    half = count_flops(uniform_arch(spec, "fuse-mb", 0.5, res=16), spec)
    for key in full.branches:
        if key.endswith("/backbone"):
            continue
        assert half.branches[key] == pytest.approx(full.branches[key] / 4, rel=1e-12)


def test_flops_additivity():
    spec = toy_spec()
    rng = np.random.default_rng(5)
    for _ in range(10):
        rep = count_flops(random_arch(spec, rng), spec)
        assert rep.total_mflops == pytest.approx(
            sum(rep.branches.values()) + sum(rep.fixed.values()), rel=1e-9)


def test_flops_invalid_arch_rejected():
    spec = toy_spec()
    arch = uniform_arch(spec, "conv", 0.5)
    arch.resolutions["mouth"] = 999
    with pytest.raises(ValueError):
        count_flops(arch, spec)


@pytest.mark.parametrize("make_spec", [toy_spec, micro_spec])
def test_flops_count_the_convolutions_the_encoder_runs(make_spec, monkeypatch):
    # batch 1: every conv and matmul the encoder runs, counted as it runs
    spec = make_spec()
    executed = []
    conv, matmul = kernels.conv2d_forward, supernet.matmul

    def counting_conv(x, k, stride):
        out, cols = conv(x, k, stride)
        executed.append(("conv", out.shape[1] * out.shape[2] * out.shape[3] * k[0].size))
        return out, cols

    def counting_matmul(a, b):
        executed.append((names[id(b)], a.shape[0] * b.shape[0] * b.shape[1]))
        return matmul(a, b)

    monkeypatch.setattr(kernels, "conv2d_forward", counting_conv)
    monkeypatch.setattr(supernet, "matmul", counting_matmul)
    rng = np.random.default_rng(8)
    for _ in range(6):
        arch = random_arch(spec, rng)
        enc = DiscreteEncoder(spec, arch, seed=0)
        names = {id(t): name for name, t in enc.weights.items()}
        frames = {v: Tensor(rng.normal(size=(1, 1, r, r)))
                  for v, r in arch.resolutions.items()}
        rep = count_flops(arch, spec)
        macs = {key: round(m * 1e6) for key, m in [*rep.branches.items(),
                                                    *rep.fixed.items()]}
        stems = sum(macs[f"{v}/stem"] for v in spec.views)
        executed.clear()
        enc.forward(frames)
        assert sum(m for kind, m in executed if kind == "conv") \
            == sum(macs[k] for k in rep.branches) + stems
        heads = {name.replace("/head", "_head") if "/" in name
                 else "shared/latent_head": m for name, m in executed if name != "conv"}
        assert heads == {k: m for k, m in macs.items() if k.endswith("_head")}
        executed.clear()
        enc.forward_early(frames)
        # the early path runs the stems too; early_head_mflops leaves them out
        early = round(early_head_mflops(arch, spec) * 1e6)
        assert sum(m for _, m in executed) == early + stems


def test_block_input_width_defaults_to_schedule():
    spec = toy_spec()
    # latent block 2: nominal input 8, output max 16 scaled to 8 at 0.5;
    # at res 16 the branch spatial chain is stem 8 -> backbone (1,2) -> 4,
    # latent strides (1,1,2,...) put block 2 at 4x4 input, 2x2 output
    ms = synthetic_latency_table(spec).query("mouth", "latent", 2, "conv", 0.5, 16)
    assert ms == SYNTHETIC_OVERHEAD_MS + 9 * 8 * 8 * 2 * 2 * SYNTHETIC_MS_PER_MAC["conv"]


# ---------------------------------------------------------------------------
# bundled reference encodings
# ---------------------------------------------------------------------------

def test_reference_ordering_and_tolerance():
    spec = paper_spec()
    totals = {}
    for name in REFERENCE_ARCHS:
        arch, reported = load_reference_arch(name)
        rep = count_flops(arch, spec)
        totals[name] = rep.total_mflops
        published = PUBLISHED_TOTALS[name]
        assert reported["total"] == published
        assert abs(rep.total_mflops - published) / published <= 0.20
    assert totals["ave_s"] < totals["ave_m"] < totals["ave_l"]


def test_reference_resolutions_match_published():
    assert load_reference_arch("ave_l")[0].resolutions["left_eye"] == 80
    assert load_reference_arch("ave_m")[0].resolutions["mouth"] == 64
    assert load_reference_arch("ave_s")[0].resolutions["right_eye"] == 64


def test_early_head_under_two_percent_of_references():
    spec = paper_spec()
    for name in REFERENCE_ARCHS:
        arch, _ = load_reference_arch(name)
        total = count_flops(arch, spec).total_mflops
        assert early_head_mflops(arch, spec) < 0.02 * total


def test_unknown_reference_rejected():
    with pytest.raises(ValueError, match="unknown"):
        load_reference_arch("ave_xl")
