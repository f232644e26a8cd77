"""The query plan: one parser, one key, one executor, same bytes.

* every response body of the corpus below is byte-identical (sha256) to
  what the six hand-written route bodies rendered before they collapsed
  into parse → key → run → render;
* the HTTP spelling, the CLI spelling and a keyword-built
  :class:`~repro.query.plan.Plan` of one request are equal, and
  ``flowcube-store query`` prints the ``/flowgraph`` route's ``text``;
* malformed requests are rejected by the parser with a 400 (405 for a
  method a route does not take) instead of being coerced;
* ``derive`` travels in the plan: a deriving request never warms an
  answer for one that did not ask.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.lattice import ItemLevel
from repro.errors import QueryError, ServeError
from repro.query import FlowCubeQuery, Plan
from repro.serve import Request, create_app
from repro.store import PartitionedPathStore, build_cube
from repro.store.cli import main
from repro.synth import generate_path_database
from tests.test_serve import CONFIG, MIN_SUPPORT

#: ``(cube, method, route, parameters, sha256 of the response body)``,
#: recorded at the parent commit.  ``wh`` is the ``test_serve`` fixture
#: store; ``partial`` materialises only the base item level (no
#: exceptions), so its coarser coordinates exist only through ``derive``.
CORPUS = [
    ("wh", "GET", "slice", {},
     "ddd50d8cdf7a5037e4fc5cbf37c8893dcb216572a4ed058c4ce584c78a852807"),
    ("wh", "GET", "slice", {"cut": "d0:d0_0"},
     "79205a191c0ac7d956509ae0ab2905c350bbaece1277f0a7415cb3dddb17b15e"),
    ("wh", "POST", "slice", {"cut": "d0:d0_0"},
     "79205a191c0ac7d956509ae0ab2905c350bbaece1277f0a7415cb3dddb17b15e"),
    ("wh", "POST", "slice", {"cut": "d0:d0_0", "measure": True},
     "47b79439901dc671635642329f5f311a5ce8531f62a37ac06834767ef807e896"),
    ("wh", "GET", "slice", {"cut": "d0:d0_0", "measure": "1"},
     "47b79439901dc671635642329f5f311a5ce8531f62a37ac06834767ef807e896"),
    ("wh", "POST", "slice", {"cut": "d0:d0_0", "path_level": 1},
     "c2f401c36ef7cb55d6f640702b7b064e94dc4c9cbc50ba088966338afa11e64e"),
    ("wh", "GET", "slice", {"cut": "d0:d0_0", "path_level": "1"},
     "c2f401c36ef7cb55d6f640702b7b064e94dc4c9cbc50ba088966338afa11e64e"),
    ("wh", "POST", "slice", {"cut": "d0:d0_0", "dims": {"d1": "d1_1"}},
     "0c16a617195edfb0b47a1fbb17e486f056dcb6d545c2ffd3899fbe9b355b3857"),
    ("wh", "POST", "slice",
     {"cut": "d0:d0_0|d1:d1_0", "dims": {"d1": "d1_1"}},
     "0c16a617195edfb0b47a1fbb17e486f056dcb6d545c2ffd3899fbe9b355b3857"),
    ("wh", "POST", "slice", {"cut": "d1:d1_0_0|d0:d0_0", "derive": True},
     "de3c2273f74e0877107a96a0ff16c7ef9caa8c8433c49a42a8662d484ee83916"),
    ("wh", "POST", "query", {"cut": "d0:d0_0"},
     "3c4bf2c12fbccf4a47b61baa2d2c863a554fa5a0208d666fba9a64b403b70b22"),
    ("wh", "POST", "query", {"cut": "d0:d0_0", "derive": True},
     "3c4bf2c12fbccf4a47b61baa2d2c863a554fa5a0208d666fba9a64b403b70b22"),
    ("wh", "POST", "query", {"dims": {"d0": "d0_0"}, "path_level": 0},
     "3c4bf2c12fbccf4a47b61baa2d2c863a554fa5a0208d666fba9a64b403b70b22"),
    ("wh", "POST", "query", {},
     "a79a9c2c0bfc149de4720d0c4b3d1bda9197399ffabeb27c3f486b85bda8446b"),
    ("wh", "GET", "flowgraph", {"cut": "d0:d0_0"},
     "8799f55cc3df46ed6b026f9f8ab4ad426fb56beb3b5038f35b1b2964157a0b99"),
    ("wh", "POST", "flowgraph", {"cut": "d0:d0_0", "path_level": 2},
     "587c971134e2f590162b5630ac7385d7717a241e2890437835adfcd313eab52c"),
    ("wh", "GET", "flowgraph", {"cut": "d0:d0_0", "derive": "true"},
     "8799f55cc3df46ed6b026f9f8ab4ad426fb56beb3b5038f35b1b2964157a0b99"),
    ("wh", "GET", "exceptions", {},
     "451cb6047679d997f726796e41080541fe67284937eb5c2f185ac4b110846136"),
    ("wh", "GET", "exceptions", {"cut": "d0:d0_0", "path_level": "1"},
     "a6d5be83e9c45ba611cca51c01457e074e82952d47d21172cfbd5d3731b0362d"),
    ("wh", "POST", "exceptions", {"dims": {"d0": "d0_0"}},
     "138e5669e0282b81a1b327f78dc6f1b563abce6e76b73a2821d961fcc072b890"),
    ("wh", "POST", "rollup", {"cut": "d0:d0_0_0", "dimension": "d0"},
     "5deab43bd8f1e7ed81c531fedf5be562c0554b49df8761c581614b1c8bd39b5c"),
    ("wh", "POST", "rollup",
     {"cut": "d0:d0_0_0|d1:d1_0", "dimension": "d1", "measure": True},
     "7d9d8633643f51324ff640020a8dda7af566b91f415d954ec8b35d0acb479931"),
    ("wh", "POST", "rollup",
     {"cut": "d0:d0_0_0", "dimension": "d0", "path_level": 3, "derive": True},
     "3a49e9c52adece8ab05f07b06c9a15e803e40459a3679dcd22470b2f7f43511d"),
    ("wh", "POST", "drilldown", {"dimension": "d0"},
     "a349d9162eb147e548a9c4ff651d9efa11c9750cd309577df8e320fec1c81c86"),
    ("wh", "POST", "drilldown",
     {"cut": "d0:d0_0", "dimension": "d1", "measure": True},
     "2df47f74929024883ac97e0f8ad6af7ebf91358c7f8e8bb823d4e4e366af9095"),
    ("wh", "POST", "drilldown",
     {"cut": "d0:d0_0", "dimension": "d0", "path_level": 1},
     "aa3923f9c95494968e4cde71ad62aa325c127b6169936a06d9d0e8a0149ec101"),
    ("partial", "POST", "query", {"cut": "d0:d0_0", "derive": True},
     "4e622622130e451a8c0e0a275a58f57774b88b1ffd4a3b96fde75ae0c1001637"),
    ("partial", "GET", "flowgraph", {"cut": "d1:d1_0", "derive": "yes"},
     "27f3acea235cc102949ffb4853da854eda0f2bb5d98ea3b0cd4832dacd2fc8c8"),
    ("partial", "POST", "rollup",
     {"cut": "d0:d0_0_0|d1:d1_0_0", "dimension": "d1", "derive": True},
     "e08e66259c8737f780e516c80d6545216c6b1504af7014d0cd8196972191f16a"),
    ("partial", "POST", "drilldown",
     {"cut": "d0:d0_0", "dimension": "d0", "derive": True, "measure": True},
     "e23c9b08add9713e921d9095de8e3c6f7d7095bb446c9346dc328d49c8e8fdae"),
    ("partial", "POST", "slice", {"cut": "d0:d0_0"},
     "8b090931cd4eb1197b8b74ba61aaed1201b82224e04a595d88cd411afc966db2"),
]


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    database = generate_path_database(CONFIG)
    root = tmp_path_factory.mktemp("plan")
    base = ItemLevel([h.depth for h in database.schema.dimensions])
    for name, extra in (
        ("wh", {}),
        ("partial", {"item_levels": [base], "compute_exceptions": False}),
    ):
        store = PartitionedPathStore.init(root / name, database.schema)
        store.ingest(database)
        build_cube(
            store, min_support=MIN_SUPPORT, into=store.cube_store(), **extra
        )
    return {"wh": root / "wh", "partial": root / "partial"}


@pytest.fixture()
def app(stores):
    return create_app(stores)


def call(app, cube, method, route, params=None):
    """GET carries *params* in the query string, anything else in the body."""
    in_query = method == "GET"
    return app.handle(
        Request(
            method=method,
            path=f"/cubes/{cube}/{route}",
            query=(params or {}) if in_query else {},
            headers={},
            body=b"" if in_query else json.dumps(params or {}).encode(),
        )
    )


# ----------------------------------------------------------------------
# byte parity with the parent's route bodies
# ----------------------------------------------------------------------

def test_corpus_covers_every_operation_and_parameter():
    assert {route for _, _, route, _, _ in CORPUS} == {
        "slice", "query", "flowgraph", "exceptions", "rollup", "drilldown",
    }
    used = {name for _, _, _, params, _ in CORPUS for name in params}
    assert used == {
        "cut", "dims", "path_level", "dimension", "derive", "measure",
    }


@pytest.mark.parametrize(
    "cube, method, route, params, digest",
    CORPUS,
    ids=[f"{c[0]}-{c[1]}-{c[2]}-{i}" for i, c in enumerate(CORPUS)],
)
def test_response_bytes_match_the_parent(
    app, cube, method, route, params, digest
):
    response = call(app, cube, method, route, params)
    assert response.status == 200, response.body
    assert hashlib.sha256(response.body).hexdigest() == digest


# ----------------------------------------------------------------------
# one parser, one key
# ----------------------------------------------------------------------

def test_every_front_end_parses_to_the_same_plan():
    expected = Plan(
        op="flowgraph",
        dims=(("d0", "d0_0"), ("d1", "d1_1")),
        path_level=1,
        derive=True,
    )
    spellings = [
        # HTTP GET: everything is a query-string string.
        Plan.parse(
            "flowgraph",
            {"cut": "d1:d1_1|d0:d0_0", "path_level": "1", "derive": "true"},
        ),
        # HTTP POST: a "dims" object merged over the cut.
        Plan.parse(
            "flowgraph",
            {
                "cut": "d0:d0_0|d1:d1_0",
                "dims": {"d1": "d1_1"},
                "path_level": 1,
                "derive": True,
            },
        ),
        # flowcube-store query -d d1=d1_1 -d d0=d0_0 --path-level 1 --derive
        Plan.parse(
            "flowgraph",
            {"path_level": 1, "derive": True},
            pairs=["d1=d1_1", "d0=d0_0"],
        ),
    ]
    for plan in spellings:
        assert plan == expected
        assert plan.key == expected.key
        assert hash(plan) == hash(expected)


def test_parameters_an_operation_ignores_do_not_split_its_key():
    plain = Plan.parse("slice", {"cut": "d0:d0_0"})
    assert Plan.parse("slice", {"cut": "d0:d0_0", "derive": True}) == plain
    assert Plan.parse("slice", {"cut": "d0:d0_0", "dimension": "d0"}) == plain
    assert Plan.parse("slice", {"cut": "d0:d0_0", "measure": True}) != plain
    assert Plan.parse("exceptions", {"measure": True, "derive": 1}) == Plan(
        "exceptions"
    )
    assert Plan.parse("cell", {}).key != Plan.parse("flowgraph", {}).key


def test_equal_requests_share_one_etag(app):
    spellings = [
        ("GET", {"cut": "d1:d1_1|d0:d0_0", "path_level": "1"}),
        ("POST", {"cut": "d0:d0_0", "dims": {"d1": "d1_1"}, "path_level": 1}),
        ("POST", {"dims": {"d1": "d1_1", "d0": "d0_0"}, "path_level": "1"}),
    ]
    responses = [call(app, "wh", m, "slice", p) for m, p in spellings]
    assert {r.status for r in responses} == {200}
    assert len({r.headers["ETag"] for r in responses}) == 1
    assert len({r.body for r in responses}) == 1
    # ...and the second and third were answered from the response cache.
    assert app.tenants["wh"].stats()["response_cache"]["hits"] == 2


def test_cli_query_prints_the_flowgraph_routes_text(app, stores, capsys):
    served = json.loads(
        call(
            app, "wh", "GET", "flowgraph",
            {"cut": "d0:d0_0|d1:d1_1", "path_level": "1"},
        ).body
    )
    code = main(
        ["query", str(stores["wh"]), "-d", "d1=d1_1", "-d", "d0=d0_0",
         "--path-level", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (
        "flowgraph measure of d0=d0_0, d1=d1_1:\n" + served["text"] + "\n"
    )
    # The same typed errors, whichever front-end parsed the request.
    assert main(["query", str(stores["wh"]), "-d", "d0"]) == 2
    assert "bad -d constraint 'd0'" in capsys.readouterr().err
    assert main(["query", str(stores["wh"]), "--path-level", "9"]) == 2
    assert "no path level 9" in capsys.readouterr().err


def test_cli_query_has_no_cache_size(stores, capsys):
    """``query`` answers one plan per process: a cell-cache size could
    neither change its answer nor produce a hit, so there is no knob."""
    with pytest.raises(SystemExit) as exit_info:
        main(["query", str(stores["wh"]), "--cache-size", "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --cache-size 4" in capsys.readouterr().err


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------

#: ``(method, route, parameters, status, fragment of the error)``.
REJECTED = [
    ("POST", "slice", {"path_level": 1.7}, 400, "bad path_level 1.7"),
    ("POST", "slice", {"path_level": True}, 400, "bad path_level True"),
    ("POST", "slice", {"path_level": [1]}, 400, "bad path_level"),
    ("GET", "slice", {"path_level": "one"}, 400, "bad path_level 'one'"),
    ("POST", "slice", {"cut": ["d0:d0_0"]}, 400, '"cut" must be a string'),
    ("POST", "slice", {"cut": {"d0": "d0_0"}}, 400, '"cut" must be a string'),
    ("POST", "slice", {"dims": ["d0:d0_0"]}, 400, '"dims" must be an object'),
    ("POST", "slice", {"dims": {"d0": 0}}, 400, '"dims" must be an object'),
    ("GET", "slice", {"dims": "d0:d0_0"}, 400, '"dims" must be an object'),
    ("POST", "rollup", {"cut": "d0:d0_0"}, 400, 'needs a "dimension"'),
    ("POST", "rollup", {"dimension": ["d0"]}, 400, 'needs a "dimension"'),
    ("POST", "drilldown", {"dimension": 0}, 400, 'needs a "dimension"'),
    ("POST", "flowgraph", {"cut": "d0"}, 400, "bad cut element"),
    ("POST", "query", {"cut": "d0:a|d0:b"}, 400, "appears twice"),
    ("PUT", "slice", {"cut": "d0:d0_0"}, 405, "use GET or POST"),
    ("DELETE", "slice", {}, 405, "use GET or POST"),
    ("PUT", "flowgraph", {}, 405, "use GET or POST"),
    ("DELETE", "exceptions", {}, 405, "use GET or POST"),
    ("GET", "query", {}, 405, "use POST"),
    ("PUT", "rollup", {"dimension": "d0"}, 405, "use POST"),
    # What the cube has to say stays a 404 (and a 400 for a dimension the
    # schema does not have), exactly as before.
    ("POST", "slice", {"path_level": 9}, 404, "no path level 9"),
    ("POST", "slice", {"path_level": -1}, 404, "no path level -1"),
    ("POST", "slice", {"cut": "d0:nope"}, 404, "not a 'd0' concept"),
    ("POST", "query", {"cut": "d0:d0_1_1"}, 404, "iceberg"),
    ("GET", "slice", {"cut": "d9:x"}, 400, "d9"),
]


@pytest.mark.parametrize(
    "method, route, params, status, fragment",
    REJECTED,
    ids=[f"{r[0]}-{r[1]}-{i}" for i, r in enumerate(REJECTED)],
)
def test_malformed_requests_are_rejected(
    app, method, route, params, status, fragment
):
    response = call(app, "wh", method, route, params)
    assert response.status == status, response.body
    assert fragment in json.loads(response.body)["error"]
    assert "ETag" not in response.headers


def test_parser_raises_typed_errors_outside_http():
    with pytest.raises(ServeError, match="bad path_level"):
        Plan.parse("slice", {"path_level": 1.7})
    with pytest.raises(ServeError, match="NAME=VALUE"):
        Plan.parse("flowgraph", {}, pairs=["d0=", "d1=d1_0"])
    assert Plan.parse("slice", {"path_level": ""}).path_level is None
    assert Plan.parse("slice", {"path_level": " 2 "}).path_level == 2


# ----------------------------------------------------------------------
# derive travels in the plan, not in the façade
# ----------------------------------------------------------------------

@pytest.mark.parametrize("route", ["flowgraph", "query"])
def test_derive_request_does_not_warm_a_plain_one_over_http(app, route):
    assert call(app, "partial", "POST", route, {"cut": "d0:d0_0"}).status == 404
    derived = call(
        app, "partial", "POST", route, {"cut": "d0:d0_0", "derive": True}
    )
    assert derived.status == 200
    # Same coordinate, same façade, same query cache — still not derived
    # for a request that did not ask.
    assert call(app, "partial", "POST", route, {"cut": "d0:d0_0"}).status == 404
    stats = app.tenants["partial"].stats()
    assert stats["query_cache"]["derivations"] == 1
    assert "derive_cache" not in stats


def test_derive_plan_does_not_warm_a_plain_one_on_the_facade(stores):
    store = PartitionedPathStore.open(stores["partial"])
    query = FlowCubeQuery(store.cube_store())
    plain = Plan.parse("flowgraph", {"cut": "d0:d0_0"})
    deriving = Plan.parse("flowgraph", {"cut": "d0:d0_0", "derive": True})
    with pytest.raises(QueryError, match="not materialised"):
        plain.run(query)
    graph = deriving.run(query)
    assert graph.n_paths > 0
    assert deriving.run(query) is graph  # memoised on the one cache
    assert query.cache_stats()["derivations"] == 1
    with pytest.raises(QueryError, match="not materialised"):
        plain.run(query)
    with pytest.raises(QueryError, match="not materialised"):
        query.flowgraph(d0="d0_0")
    # A façade built to derive does so for every plan.
    assert plain.run(FlowCubeQuery(store.cube_store(), derive=True)).n_paths
