"""Scalar-window analyses recorded before the 1-D path came to hold the
window plus one sorted copy of it (``np.sort`` in place of a stable
argsort plus gather, cell counts read off the sorted counted values, one
slice per component, streamed nearest-member and deviation passes); the
analysis must reproduce them bit for bit. The windows are the paper's
block sequences, k_max 2-10, under four ideals, and seeded windows with
many repeated values on three grids under three ideals. The streamed
passes must also give the same cells, cluster points, order statistics
and deviation rungs whatever their span, so seams fall between any two
rows.

Run this file as a script to print the table from the current code.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

import turnlab.analysis as analysis
import turnlab.geometry as geometry
from turnlab.analysis import (
    analyze_window,
    cluster_points,
    deviation_densities,
    ideal_liminf,
    ideal_limsup,
)
from turnlab.ideals import burn_in, parse_ideal_spec
from turnlab.scenarios import build_block_sequence
from turnlab.windows import SequenceWindow

BLOCK_SPECS = ("density:0.01", "density:0.2", "fin", "finite-trace:auto")
RANDOM_SPECS = ("density:0.01", "fin", "finite-trace:auto")
GRIDS = (None, 0.01, 0.3)


@functools.lru_cache(maxsize=None)
def _blocks(k_max):
    return build_block_sequence(k_max)


def _random_window(seed):
    """A few dozen levels at most, so most values repeat many times."""
    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(300, 4000))
    levels = rng.normal(0.0, 1.0, int(rng.integers(3, 60)))
    return SequenceWindow(rng.choice(levels, n))


def _cases():
    """name -> (window factory, ideal spec, eps_grid, limit_eps)."""
    out = {}
    for k in range(2, 11):
        for spec in BLOCK_SPECS:
            out[f"blocks{k}-{spec}"] = (functools.partial(_blocks, k), spec, None, 0.1)
    for seed in range(10):
        for grid in GRIDS:
            for spec in RANDOM_SPECS:
                out[f"random{seed}-{grid}-{spec}"] = (
                    functools.partial(_random_window, seed), spec, grid, None
                )
    return out


CASES = _cases()


def _digest(name):
    make, spec, grid, limit_eps = CASES[name]
    window = make()
    try:
        model = parse_ideal_spec(spec, window.horizon)
        report = analyze_window(window, model, eps_grid=grid, limit_eps=limit_eps)
    except ValueError as exc:
        return f"raises {type(exc).__name__}"
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


RECORDED = {
    "blocks2-density:0.01": "54372c427bd51d11cb2599c0bb0955e9bd5612d3f4177408cc18d0900110f71b",
    "blocks2-density:0.2": "4d691e805b4ac953c07ceb2675748ea5967fbe4a05da82cf8da6d615ccb18a61",
    "blocks2-fin": "99d330ad34996c84b6c1f13de58d1b45506057205ed6e59c80a425bdbe45cee8",
    "blocks2-finite-trace:auto": "raises UnboundedWindowError",
    "blocks3-density:0.01": "cccaf3dda74632c97ff66ca2cecddb5cbc3f273fae4c3c35acf37791c79ce9c9",
    "blocks3-density:0.2": "72359f67194ca66c630931676c17411a6de22ce7f04fcd763e7beb6b93127cd2",
    "blocks3-fin": "7701617cfb3797b373aa9e3d4bee3368df6eb1df8ed0de6926cd435d0a510564",
    "blocks3-finite-trace:auto": "raises IdealSpecError",
    "blocks4-density:0.01": "749d823ea43a468f3b69118eb12f153e7bc346016cbf4bfbe1644004433ad2e9",
    "blocks4-density:0.2": "670b06a5c60958262e04fbbd320f02feb484eb178d9a355ec0b236294f18d1ec",
    "blocks4-fin": "2a152cd36d6ed8f34304f28816d6eed1afa9adfcbe337a9816c0a63e26899d22",
    "blocks4-finite-trace:auto": "raises UnboundedWindowError",
    "blocks5-density:0.01": "73f0c6e850dde19ae806fdeacf5741450a314c0bf0086188d331c62ac1ce99df",
    "blocks5-density:0.2": "7183f834b03cbd9e07f23398dbd2297d25d310635da5a8e5507a93dbd43b18b6",
    "blocks5-fin": "be25c10538563c616599d362fd367820ef9c1036df020ba5d21d94347063fb22",
    "blocks5-finite-trace:auto": "93c9c19f815ec22f72962b6b89e713b7d127668258b6a2a3a2e98b23c04670bc",
    "blocks6-density:0.01": "8fb7357f629f08833209a88528687d105de13418c0ef97e01253d57cec85d2d1",
    "blocks6-density:0.2": "095757f0674f20e7cb0b5add7ea29d29627026e551a1c60eada511233b858170",
    "blocks6-fin": "1673a4d847b53cd447b1a6392fbbfd1c4e9d545a50aea8576b2b858f85e65391",
    "blocks6-finite-trace:auto": "6bfb18050ffa2b1d06c2b4f9bd392e55bb0a9df9911bababc4ec61bac39d3975",
    "blocks7-density:0.01": "b596204055f6198521e20f94a534f65d9f07f1c6aaab788f06e04f499844da9b",
    "blocks7-density:0.2": "0cc4a6364b15ea9adbe77d9887e4980dcf78f5925cf8ae5c4d5d9f0ff5698d8c",
    "blocks7-fin": "1c12e30e8926e8443a86ef963104a39bcf2db48da01bc46896a63d3346ee55e6",
    "blocks7-finite-trace:auto": "3e29ac5f0d96414ef62e455e5dc179db3739b888344567d77677676980893e56",
    "blocks8-density:0.01": "1a973c10dc338f5be81405e533b2ce005a657e60af146564e49b27c8be3285d7",
    "blocks8-density:0.2": "830eddacc9e185c635c30900acc74585d801b62bd40ae1a8e6539cf448f5048f",
    "blocks8-fin": "9d80476ef7a2dad6f278c2e038903690da56bbece4a6432193ccd05ec611b487",
    "blocks8-finite-trace:auto": "60e93a00fa8de259e93d73915b60c65bb9eebbc9e3a2b699bea59540fe628bde",
    "blocks9-density:0.01": "4866c8f9047a0125a44ba18dc78d26434af49118922d183983840fe6e1346934",
    "blocks9-density:0.2": "202822257472d1d3bad6b0ed0fe5e506bacdd08353027a382b7dcda8ac5735de",
    "blocks9-fin": "135b8b78b8afa37470875f1ae103ee5d10c566ba73901eae962cdae9a1c4a936",
    "blocks9-finite-trace:auto": "daa73653f8ffb575b33723e2d99aa7466dd9bd9866b7b4a591c26e1ae6a4963b",
    "blocks10-density:0.01": "ecefe445e50cf81c51661c35ac32fbc664a8ad09235a1c2aca0d839066e5305d",
    "blocks10-density:0.2": "a424f71a020885a2f80eed04b56e56792c1d450ce475596619457ebeed561603",
    "blocks10-fin": "bd420c56c47740c75f17a1bcb83cd75306ea369742a020fbd0e2f0d6b13a24b9",
    "blocks10-finite-trace:auto": "07b355146c437644e227d547343fb1ac08029a4f882153ce6f9cd8ca59fc65cd",
    "random0-None-density:0.01": "ec89267c88ff9fa6bb8ef01ff319316a2c0b0f4f7a61dceffe0bab4704cccf9f",
    "random0-None-fin": "d5010a8618773d7ffec7d7d6dff048035db7f56c7e2e2a997c31ecbae72e9a04",
    "random0-None-finite-trace:auto": "d2d3877f3d941aa9ca2ea3477163e610b67ed2d741f2458560f4023d2a7bf9a7",
    "random0-0.01-density:0.01": "894f733a65df5df83839bb2372360e8eac9cab0aa61d7090287e0eb8ca10d9bf",
    "random0-0.01-fin": "9325cb3110a83208719fe26cbc143c9e57463ba687ecb00d6cbf05fa994af3e6",
    "random0-0.01-finite-trace:auto": "8510c2953966905ba46e48d694bdff1028477c7bb80086a5f36d5c2fdf36c205",
    "random0-0.3-density:0.01": "201bf46d6a1fda6329df1973a31a251d1de014958867815cf239095c5c64af1c",
    "random0-0.3-fin": "b5c2ed24851db1adf1cc0c64aa70860af8e3f9275908c6f16381d7050683e1a0",
    "random0-0.3-finite-trace:auto": "fe1b816b1ac25fd9b1691ea7295cb7f14d585324d0c27fd9a54067207dc418d6",
    "random1-None-density:0.01": "8e0b9920757dc9e486cf1e59c8deffbc6c05609f5b766401f76eee28e2a077ea",
    "random1-None-fin": "31d532e723a49c39733223e40bec297d54886252a3b294064a1380995f593723",
    "random1-None-finite-trace:auto": "eef541e2b3a66726f0220e94400df95d0f6759f8b71b1430144e118908779180",
    "random1-0.01-density:0.01": "a709c82c2acd98836ae1008cc096fb82adc74e268a5e5d52248c961ab0ee7376",
    "random1-0.01-fin": "2811a15144e7a52d2ea425571977c001e2e58353fc935217183ad37966094162",
    "random1-0.01-finite-trace:auto": "c99fd62df3347d1f713414ced8cfe925e05c0ef0cf4dd69e41ea20ba54cb4847",
    "random1-0.3-density:0.01": "63e3a1a74483eb13733aefd45c4abfd852f1f236cae501556c5cb0e88725afa5",
    "random1-0.3-fin": "ca8c11da6c12a5774db36e3206f83ed2d80759ee7f31d4b9f31c79c4bf6ebc7a",
    "random1-0.3-finite-trace:auto": "0e118092dd07b7818f031fa05460aa5ecd93771f6123a8e6b66dedb7f589c17d",
    "random2-None-density:0.01": "91f2b2a49d3ac6c7293a0dc1a2b497dc624b466e34c31de2d7f8473eb6d945b9",
    "random2-None-fin": "fcdbc142e626f7413fa82a74a2a72dc02bd8a240389c9483778de493b7d31465",
    "random2-None-finite-trace:auto": "e7003ea4476f8b2d35343f724baebcaac404c90a68c91e464b05d0912c9ff59a",
    "random2-0.01-density:0.01": "b4012decc09bbcd6cea4c977bee992f440b05f7ae24499d18ed8ef1d69bb7383",
    "random2-0.01-fin": "d0542476eb45f58ddfa803a28cc421fc4b779037aea5e4c0630cd249c4afb6fa",
    "random2-0.01-finite-trace:auto": "74b87837a77446a76aa1573a490241bd7352e489e5c3214eab5184436c199687",
    "random2-0.3-density:0.01": "4468400717cd78ae268d236f15e4389f6c38549cedc291ac4d2649fdccf2d6e7",
    "random2-0.3-fin": "18cd5da0ca80b7d90479f675d9379b5138a8f929d4879568fd6ee6ac62a28eeb",
    "random2-0.3-finite-trace:auto": "fc7fc25c7420abae09e465c94dd47d8db9a4a2a8ebd33a84a917b644ee66c584",
    "random3-None-density:0.01": "1644911781960acbc68354dc08cc851cefe38118c63bf8bd14cb7fd141c34e10",
    "random3-None-fin": "19a71ba972cfa37ee039a05a3739ebd74e4222ac4f5ac5d6ffa0f3dcc77a2c53",
    "random3-None-finite-trace:auto": "3e7950ac1e48d01717fcdedb75594efbc028ffe884feca6ccf85b85d33f20d7e",
    "random3-0.01-density:0.01": "a389b4ab0088991e9651fcbea8eee51de05d3108c1591ab85a6dc28fecbb943d",
    "random3-0.01-fin": "7920841d55ac8e1622d996937cc817461582e6af4fb383c2edda8f92a8123091",
    "random3-0.01-finite-trace:auto": "5dbec1550d87791a2da65ce6489c300240b500f81b8b39a184583fc4ea3f68cc",
    "random3-0.3-density:0.01": "ee0ed1157672b9112109f16c32022459c972694847f4735ef61b4a1526b0020e",
    "random3-0.3-fin": "eb3b56884fcb7f0bb6be686b5f1c6c282c5c20b6be0a12e7adfd0176cd76f0ab",
    "random3-0.3-finite-trace:auto": "0dd5a1adb205699ce0150ac1ade5eca9779959325c48aa6a651844370a7e4d71",
    "random4-None-density:0.01": "68ed19129d9d0753f3258dc4f7f247695abe1a83bffce1ed9d6b1143a578ca8f",
    "random4-None-fin": "4a209ce9a112ffad49373152c06c45b371ec5270b2f197eec701307b5bb179b9",
    "random4-None-finite-trace:auto": "fe4ebe558fd3ac452fe96dac25b86bf6677fd35a10a85e4577c25211aa592e0d",
    "random4-0.01-density:0.01": "8d95c9e46a8f5d8131dce6bfb6ee841e55335df7f2151dd37a941c4c8d853235",
    "random4-0.01-fin": "b16bccc517384af689b9efe49eb14983850e3e0971b991f8d42e88db582dcd15",
    "random4-0.01-finite-trace:auto": "29faa24eb641194621e22c720897c1171c6b0bb7abfd4f437d735f8a5f0cad4d",
    "random4-0.3-density:0.01": "d6cb0847457fee6fc7ece506b882a215c2139ea62f27441c28fb73c7779b0f51",
    "random4-0.3-fin": "22cba1aed40ca5e67a3e737dff1efe9e35f92176f1eefb85a5f0caf91271d4e1",
    "random4-0.3-finite-trace:auto": "46597961bcb941d7b4dcb53c598ab680ed82425c152b22646ee30e6e36252abf",
    "random5-None-density:0.01": "da3f1c3206c715ef30b607d48f4436a56d378ab0ebc76d58f1398978eadebb64",
    "random5-None-fin": "26a23005a06b270e14466ce31845a0bf6ebe4b1c883751469cb590af12682a78",
    "random5-None-finite-trace:auto": "a5ee2a4cbe281b5c28f6e327c42a5effff2c974588503ad3ecffe97cf161c1d8",
    "random5-0.01-density:0.01": "d092ce9a19ec956b7cc98bf12d4857c3b3311c3081fbc2549b4023dc3ad38e45",
    "random5-0.01-fin": "5fd09b3c7bbac32a0115f7eb31cf989fdb84bb4b147d8c3304d613d5a7afd33d",
    "random5-0.01-finite-trace:auto": "5864f3c60bd2af7bcd68d289b2140cc7558ec83a8a1db2b66c5c9ceb7a32523c",
    "random5-0.3-density:0.01": "d75c6a4614d57cec37e47dea757ea49bd4fb82ff8e8e2d71de827d885e0e68ab",
    "random5-0.3-fin": "36edab836e54256a244fd30e52cf9d6f02fdd79e2f93bf93f0a9b9a911b6e930",
    "random5-0.3-finite-trace:auto": "e804e325ffe8758ab4ab1bdb703b73f3a4132b6b5ab05a44b05bea5a1fb62a7b",
    "random6-None-density:0.01": "1bf5dd0dde2a174a11c1955ec985f747caa79e76dd94aac0ed5e2d9a87845184",
    "random6-None-fin": "3ba1c9e2ff2a975c1ba7f054d19e4fd4ac0652343ff4f04a3a1859d7418c919e",
    "random6-None-finite-trace:auto": "f5a638a004fc783d9d9e6b89d2ee1f71423a1195807d68da1012e590f4fe0463",
    "random6-0.01-density:0.01": "38b80320b549dc8dabe69ee4fceedfeb0bd9939ef3bf966f306851718350f147",
    "random6-0.01-fin": "d91623f5c063272377b42b5210ba334a434a81c3bb31e97e770851db7d316a63",
    "random6-0.01-finite-trace:auto": "0033fd25fae6f57563acefd7322f437f57e593210db5684942d244d03d51bef1",
    "random6-0.3-density:0.01": "99169c287a02d84ecdfb04a937dde70cb80458c42fce5467d99728295be9c86f",
    "random6-0.3-fin": "de03e51cafb9f67601ee49d971fd216be63044d19b79f869cbe01f238dc56fe3",
    "random6-0.3-finite-trace:auto": "9739834c45d524019201aaef1520e301f35fd91a12e50b2e14539584c8248940",
    "random7-None-density:0.01": "bddf193d63ce14da447ed482cce62a28562074b83c7efcfcef575ec7f6cc8e9e",
    "random7-None-fin": "c4b4b025df59e421df5a3f0806e69ea29b9ebba0d865fbda27dcf004c068c0df",
    "random7-None-finite-trace:auto": "0b8253e0e21c98ac8a9bd5068249af8ef4e9d9d0647d3bdf2d60c759f6f044b8",
    "random7-0.01-density:0.01": "c807b40d0e84c7a78331b94c2acbf82f079bd1b5e2a20916b8e8d059998d32c9",
    "random7-0.01-fin": "3d6bf0fac947f7a9729a13bfaa17eeca644d2cbde8a36a38e7741303047d36e5",
    "random7-0.01-finite-trace:auto": "a3f137451f23e717ceeee3cee3630cc70027834b7cd6df4a4ea98c6e216fb0f2",
    "random7-0.3-density:0.01": "9f8cc380f1d72a69e2bfb2b53d52614dcdd797d448a7ac1c0f79f06b972b1922",
    "random7-0.3-fin": "6e9f68cd3cd8a115a9a10928e4c2195f5860769e6c2bfa5246a1bf1b5ffd627b",
    "random7-0.3-finite-trace:auto": "f36bc44b2624d20d05c5cce1d5b1e78665e0c90f4604c5ee38b17c4aeef9bc52",
    "random8-None-density:0.01": "c68ea23c11a4f45b56aeaa76e5e92ce7298b548779689119aa768e99aad8ef18",
    "random8-None-fin": "e70674c0f295c53f4a6a3ecd70feda06657c0cbc7a5d9ba818186b29c5a8f47a",
    "random8-None-finite-trace:auto": "c28c8e1b7eda5f064cfa0c348acc0815e6bc209a795e86fe32eeacdd52f05d9d",
    "random8-0.01-density:0.01": "1358d4bfa44e45ed6b95d43a01130c9fcb63a4a04171855da9c35008133ffaf4",
    "random8-0.01-fin": "41182c73ed9a9ea482d0d3955c517c22a7b5ddddbeb5fed913f998ae62a4e641",
    "random8-0.01-finite-trace:auto": "596147b7270eb4f4e6d6851102ed4281848935929ff53b2a6edf6628a19978c9",
    "random8-0.3-density:0.01": "c35af36aa2203516034855d0e0303ff4a02b78ab4748c67dab4f93725c524561",
    "random8-0.3-fin": "6a4e03e49ace32f79fd33fb349e137ce9f45bba97ce421fc62fbcd1666d9a5e8",
    "random8-0.3-finite-trace:auto": "2674da0ac586a413fe1aba44c256ce7713e31eb1af6a119e7560a979124fac46",
    "random9-None-density:0.01": "67e6e88fe5f85f39a429ee618cccd43002ce8b6427f898946edd48c7dec34b18",
    "random9-None-fin": "6bd7dfbb8cf78cecd016f5a4468c5ac419bc8122ac09884717448d60c5048a71",
    "random9-None-finite-trace:auto": "17244f612a23d7b717f4b03f41994ddf94781aeb39147b996ad40175050e734d",
    "random9-0.01-density:0.01": "9cefbc9844189d96b5b6da83d7892c0cd15227451dfd610fedcd64c06648691e",
    "random9-0.01-fin": "0b0374aadb3e7c78a2d4fc707839df98c8424004889c48d82f9370e787cbd331",
    "random9-0.01-finite-trace:auto": "640b4301aa8f85bac13fc5f7c30de7cc8c83bc1a37e305e5ae215a06ad4352a8",
    "random9-0.3-density:0.01": "10f7b68f464402e7fc9a0651c61e9939000302fa1cb139fdf623a42bc155fbca",
    "random9-0.3-fin": "5e956697f5d01aea8b32405b64868aa849dcb67182ac5a9038b1e98fc0bca368",
    "random9-0.3-finite-trace:auto": "b34e7758a62559720f13cca939d3968dfbd2c89ec58710c5119ff3d38ad2c5a9",
}


@pytest.mark.parametrize("name", list(CASES))
def test_analysis_matches_recorded(name):
    assert _digest(name) == RECORDED[name]


# ---------------------------------------------------------------------------
# span seams


def _span_summary(window, spec, grid):
    model = parse_ideal_spec(spec, window.horizon)
    eps = analysis.default_grid(window) if grid is None else grid
    keys, counts, members, _ = analysis._cell_stats_1d(
        window, model.at_horizon(window.horizon), eps, burn_in(window.horizon)
    )
    every = np.arange(len(keys))  # each cell its own component: its cell's values
    cells = [v.ravel().tolist() for v in members(every, every)]
    pts = cluster_points(window, model, eps_grid=eps)
    target = pts[0]
    rungs = deviation_densities(window, target, model, (0.5, 0.1, 0.02))
    # the read-off liminf/limsup and the streamed ladder of the one-stop report
    report = analyze_window(window, model, eps_grid=eps, limit_eps=0.1)
    return (
        [keys.tolist(), counts.tolist(), cells],
        pts.tolist(),
        rungs,
        ideal_liminf(window, model),
        ideal_limsup(window, model),
        [report.liminf.hex(), report.limsup.hex(), report.ladder],
    )


@pytest.mark.parametrize("span", [1, 7])
@pytest.mark.parametrize("spec", RANDOM_SPECS)
def test_span_seams_leave_results_unchanged(span, spec, monkeypatch):
    windows = [_random_window(seed) for seed in (0, 3)] + [_blocks(5)]
    want = [_span_summary(w, spec, grid) for w in windows for grid in GRIDS]
    monkeypatch.setattr(geometry, "ROW_SPAN", span)
    got = [_span_summary(w, spec, grid) for w in windows for grid in GRIDS]
    assert got == want


# ---------------------------------------------------------------------------
# cell seams


def test_top_cell_members_keep_the_clipped_maximum():
    # the maximum 1.0 lies on the top cell's upper seam and is clipped
    # into cell 3, whose ball counts it; the members must hold it too
    window = SequenceWindow(np.tile([0.0, 0.75, 1.0], 100))
    model = parse_ideal_spec("density", window.horizon)
    assert cluster_points(window, model, eps_grid=0.25).ravel().tolist() == [0.0, 0.875]


def test_component_counts_each_seam_visit_once():
    # 201 evenly spaced levels, 0.01 apart, so visits sit on cell seams;
    # summing a cell's width onto its start can round past the next
    # cell's start, which once gave seam visits to two adjacent cells
    window = SequenceWindow(np.tile(np.linspace(-1.0, 1.0, 201), 20))
    model = parse_ideal_spec("fin", window.horizon)
    pts = cluster_points(window, model, eps_grid=0.01)
    # eleven levels -1.0 ... -0.9 form the first component; every level
    # is visited equally often, so its centroid is their mean
    assert pts[0, 0] == pytest.approx(-0.95, abs=1e-12)


if __name__ == "__main__":
    print("RECORDED = {")
    for name in CASES:
        print(f'    "{name}": "{_digest(name)}",')
    print("}")
