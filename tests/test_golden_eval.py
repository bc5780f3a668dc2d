"""Golden outputs of ``votedist eval`` at the scale of the benchmark.

Three seeded 20,000-voter documents (distinct line positions, 7 shared
sites, planar metric pairs) are evaluated through the CLI, as CSV at the
document's beta and as a report at beta 0.37.  The expected strings were
recorded before elections moved onto read-only arrays; any change to the
data layer, the voter arrays or the exact engine that moves one digit of
these outputs fails here.  Two last digits were re-recorded when the exact
engine began to cut its rows to their windows and to take runs as binomial
blocks: ``shared``'s CSV ``win_prob_right`` and ``metric``'s report
``win_prob_right``, each now nearer to an 80-bit sequential product.
"""

import json

import numpy as np
import pytest

from votedist.cli import main

N_VOTERS = 20_000
SITES = np.array([-0.5, 0.1, 0.2, 0.4, 0.7, 1.3, 2.0])
SITE_WEIGHTS = [0.12, 0.12, 0.13, 0.13, 0.15, 0.25, 0.10]

HEADER = (
    "sc_left,sc_right,optimal,dist_left,dist_right,expected_votes_left,"
    "expected_votes_right,expected_winner,win_prob_left,win_prob_right,"
    "expected_distortion\n"
)

GOLDEN = {
    "distinct": (
        "16701.7517695,16570.5999242,right,1.00791473126,1,5272.9205975,"
        "5377.27938437,right,0.0490514906786,0.950948509321,1.00038822937\n",
        "sc_left               16701.7517695\n"
        "sc_right              16570.5999242\n"
        "optimal               right\n"
        "dist_left             1.00791473126\n"
        "dist_right            1\n"
        "expected_votes_left   7643.61702748\n"
        "expected_votes_right  7769.97557651\n"
        "expected_winner       right\n"
        "win_prob_left         0.0117955853976\n"
        "win_prob_right        0.988204414602\n"
        "expected_distortion   1.00009335889\n",
    ),
    "shared": (
        "15678.9,13804.7,right,1.13576535528,1,5193.8,5036.91666667,left,"
        "0.991212371482,0.00878762851773,1.13457229977\n",
        "sc_left               15678.9\n"
        "sc_right              13804.7\n"
        "optimal               right\n"
        "dist_left             1.13576535528\n"
        "dist_right            1\n"
        "expected_votes_left   7614.69102521\n"
        "expected_votes_right  7734.71644236\n"
        "expected_winner       right\n"
        "win_prob_left         0.0187712471903\n"
        "win_prob_right        0.98122875281\n"
        "expected_distortion   1.00254848504\n",
    ),
    "metric": (
        "24325.6469447,24541.256437,left,1,1.00886346385,3904.89262919,"
        "3786.71946442,left,0.96734806307,0.0326519369301,1.00028940926\n",
        "sc_left               24325.6469447\n"
        "sc_right              24541.256437\n"
        "optimal               left\n"
        "dist_left             1\n"
        "dist_right            1.00886346385\n"
        "expected_votes_left   5926.87069827\n"
        "expected_votes_right  5772.59934346\n"
        "expected_winner       left\n"
        "win_prob_left         0.990208712534\n"
        "win_prob_right        0.00979128746563\n"
        "expected_distortion   1.00008678472\n",
    ),
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    rng = np.random.default_rng(20261018)
    distinct = rng.uniform(-1.0, 2.0, N_VOTERS)
    shared = rng.choice(SITES, N_VOTERS, p=SITE_WEIGHTS)
    x, y = rng.uniform(-1.0, 2.0, N_VOTERS), rng.uniform(-1.5, 1.5, N_VOTERS)
    metric = np.column_stack([np.hypot(x, y), np.hypot(x - 1.0, y)])
    specs = {
        "distinct": ("line", 1.0, distinct),
        "shared": ("line", 1.0, shared),
        "metric": ("metric", 0.7, metric),
    }
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (kind, beta, voters) in specs.items():
        paths[name] = root / f"{name}.json"
        doc = {"schema": 1, "kind": kind, "beta": beta, "voters": voters.tolist()}
        paths[name].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_eval_outputs_are_byte_identical(documents, name, capsys):
    path = str(documents[name])
    csv_row, report = GOLDEN[name]
    main(["eval", path], standalone_mode=False)
    assert capsys.readouterr().out == HEADER + csv_row
    main(["eval", path, "--format", "report", "--beta", "0.37"], standalone_mode=False)
    assert capsys.readouterr().out == report
