"""The documented API: the README library example runs, and ``netcrf.__all__``
is the list below, so a new or dropped export is a one-line change here."""

import math
import re
from pathlib import Path

import netcrf

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "__version__",
    "DgpParams", "SampleFrame", "TrueEffects",
    "assign_treatment", "dgp_scenario",
    "simulate_frame", "true_aggregate_effects",
    "DesignMatrix", "ModelKind", "ModelSpec", "build_design",
    "format_model_spec", "parse_model_spec",
    "EffectAggregates", "EffectCell", "EffectTable",
    "complete_effects", "recover_effect_table",
    "telescope_level_from_changes",
    "DataError", "NumericalError",
    "OutOfSupportError", "RankDeficiencyError",
    "DEFAULT_RADIUS", "DegreeSummary", "Network", "PositionSet",
    "build_geometric_network", "calibrate_radius", "degree_stats",
    "generate_positions", "ingest_network", "network_from_edge_pairs",
    "FitResult", "fit",
    "MCConfig", "MCReport", "TableComparison", "load_reference_tables",
    "replicate_table", "run_study",
    "GENERATOR_NAME", "rng_from_seed",
]


def library_example() -> str:
    """The first python block under the README heading "Library example"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    aggregates, tau1 = capsys.readouterr().out.splitlines()
    assert aggregates.startswith("EffectAggregates(direct=")
    assert math.isfinite(float(tau1))


def test_all_names_resolve():
    for name in netcrf.__all__:
        assert hasattr(netcrf, name), name


def test_all_is_the_documented_list():
    assert netcrf.__all__ == PUBLIC_NAMES
