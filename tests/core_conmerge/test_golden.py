"""ConMerge decisions pinned byte for byte.

Each case hashes what a ConMerge pass decides: every block's sorted cell
tuples, its conflict vector and origin count, then the pass's cycles and
merge successes. The cases are the 18 row-tiles ``estimate_profile``
merges for ``dit``, ``mld`` and ``stable_diffusion``, 40 seeded random
tiles run with and without the SortBuffer, and one group of merges whose
incoming block is already merged (so it carries foreign input rows).
"""

import hashlib

import numpy as np
import pytest

import repro.hw.profile as profile
from repro.core.bitmask import Bitmask
from repro.core.conmerge.cvg import _blocks_from_entries, conmerge
from repro.core.conmerge.merge import try_merge
from repro.core.conmerge.sortbuffer import ColumnEntry
from repro.hw.constants import HARDWARE
from repro.workloads.specs import get_spec

PROFILE_MODELS = ("dit", "mld", "stable_diffusion")
WIDTHS = (3, 8, 16)


def _block_key(block) -> tuple:
    cells = sorted(
        tuple(map(int, (c.lane, c.col_slot, c.input_row, c.origin_col,
                        c.buffer_index)))
        for c in block.entries()
    )
    return (tuple(cells), tuple(block.conflict_vector), block.num_origins)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _result_digest(result) -> str:
    return _digest(
        [_block_key(b) for b in result.blocks],
        result.cycles,
        result.merge_successes,
    )


def _profile_tiles() -> list:
    """The 16-row tiles ``estimate_profile`` merges, in call order."""
    masks = []
    real = profile.conmerge_tiled

    def record(mask, **kwargs):
        masks.append(mask)
        return real(mask, **kwargs)

    profile.conmerge_tiled = record
    try:
        for name in PROFILE_MODELS:
            profile.estimate_profile(get_spec(name), HARDWARE)
    finally:
        profile.conmerge_tiled = real
    return [
        Bitmask(mask.mask[start : start + 16])
        for mask in masks
        for start in range(0, mask.rows, 16)
    ]


def _random_tile(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(3, 17))
    width = WIDTHS[seed % len(WIDTHS)]
    cols = int(rng.integers(width, 6 * width + 1))
    sparsity = float(rng.uniform(0.4, 0.95))
    return Bitmask.random(rows, cols, sparsity, rng), width


def _fresh(grid, origin_offset: int) -> list:
    entries = [
        ColumnEntry(origin_col=col + origin_offset, occupancy=grid[:, col])
        for col in range(grid.shape[1])
    ]
    return _blocks_from_entries(entries, grid.shape[0], grid.shape[1])


PROFILE_DIGESTS = [
    # dit: FFN tiles, then attention tiles
    "9a8a4bed40dd7ed576aff2be86a825bc91c3b6110d378ab615a2040174ce47d5",
    "a5de12d9060c94d0842a9ff8c00bf093055a1210b126dbe574dcbc1314e39f58",
    "39155bc9cfee74276219a3a77cb9e1bb89cf14880b366b090a1a1fa2ee8927ed",
    "9e38c2d35c3c94ba009e961e87d5b324d864334d6cfada20e3ed7383c2d52e78",
    "aa7d3712d096795d648a1412674bb5cbdcc421041c051df0056f5aa7453aadf1",
    "9e2469a935f6518368e4fb44db03b60a103a0481719b1da332ab86b6f3a865d8",
    "4fd5298b290d4e08f1663d4f56e8f19791813498b0ad2921d683e97504b918ec",
    "356df0972aa10b55edcf8159dab035e9047ccfdd397b349188a1ec60ef9a746a",
    # mld
    "88f45c88f570b6eae09a86fde23b3fc61929fdf929167603f706ad85da4fc46f",
    "a86d7cc1b7cbd635ba1eb30d1cd6823b7bbe792fb6f6adadcd8594600a03c360",
    # stable_diffusion
    "ff8ffa8bcf53ed07e8c97f78620423d38fecf3eb93eeef85fa3ab1006eaad858",
    "88893cbe1a5c1463fa7403ba664d75a6472261e4fa78baa8e8f7c19dbddaac68",
    "295011e71232e603326e7f33f0d63fde93d2d0d0a5a84a9cd37b9f2d90f220b9",
    "1c01439042ad61169475d43257f3df87782cdccfb921548aa94c2e32c3d1c20d",
    "a81f23f32f36256d4dd638f39d43e8563b79eb3a09524baf1599b62f37d58f07",
    "46e32a8557832b5a366038ae145bbe6e9116b612875e35827eec2628fcce3f34",
    "f325196290cd3f59eaf2b6ed3d41dd923fb393ec89b5c6b04d105cb0e3fabc63",
    "e179ce0571c1cd7ff3436973ef27f6e21230fe1db19c6d797b42e641c0988f3c",
]

RANDOM_DIGESTS = {
    (0, True): "bc486d48fd7c95c7169b0eec9ca0fe864decb9b862c8cf873be39b00e825d63b",
    (0, False): "33db71dcb9aa3ffe380aa36fc9bf78d65c2ae13402780f42368ec5a3c0ddf017",
    (1, True): "563353584a14cc7a43494b748fee419bbf0905b274f8ed5a247ef795131c844f",
    (1, False): "b5f10eb58c60e8576afe11f2c99a293eeaca425b49eddce5675118d8ba176f1d",
    (2, True): "8b58d16e84bee0704e5b0873245e454c7b017a0c1c829ef9e79b2e2d94654537",
    (2, False): "c661b5e2b6d2696b0ced8d1e8802a5eda46e6ea4a66572857db698875318bfec",
    (3, True): "45fbb04631cbe33044b755d2b03081877ddee9354f44284a83ccd8213cb78e28",
    (3, False): "a5b9cc21af7147c1caca1e28cee1fe288dc1b41d818937152b72b06c778a7eed",
    (4, True): "eb7064095436d01fd55851d2fa8faa08d0f03916da240a22b3963f267b70f854",
    (4, False): "b640a6b6bec013440ad16c13d8d5f47309b51c7913f20dffcc23855604e535e7",
    (5, True): "07de57de22e33d9809ee1251024cde571466e6cfad2c73aa437ade67fe9ebfa3",
    (5, False): "26643a4b12f9dec825675419d033d7f2452bdf621c66d9d102307cd379510fd5",
    (6, True): "b89e68118620421f9820d6244894594f95e5ed3f3d21f07b112e4d6d707cb7a6",
    (6, False): "c73d2f635fa248c6498900c6fce0f4c51d7a6e19d8553a6ca0d8fe277eccb580",
    (7, True): "cf70d996656548ace9301dffeae76055757996587396459f3428185b08eee063",
    (7, False): "b847b5a4f8caff372dd4f82aa5a9371290d384e2511ad17dd190ab085336fbca",
    (8, True): "bb0f514567f4c0201ccd33cb0f7f2df4f34a6bfeefece6df40fe6129b0b18f5c",
    (8, False): "bb0f514567f4c0201ccd33cb0f7f2df4f34a6bfeefece6df40fe6129b0b18f5c",
    (9, True): "c34766e2542c243b8d4ceebc4995d853439610fb79e93ef82e221b0c6d7e932a",
    (9, False): "3d9c53e504588ec436f1fa6e44702e5dfcd953a18f0fa8fbd50a4fe663370c7f",
    (10, True): "0beb90ba580a1cc89b76032a4edf0e2fac5dec82179f56a5e1437631cb730349",
    (10, False): "193c6abae3e91ed78344c88527db718825e4f319d9bb52a18d6eea300b813d80",
    (11, True): "05e50edad1f6f25f1f8173700451db2dff549ff919fa5805ca8f83b1ea8b6509",
    (11, False): "a66d7234732b14862646d8f576eec27ab6802b1515380c873180885702127a30",
    (12, True): "ae2df0284087eb7d358149875459cf02be2e636e6942979ab0aeaceac970aa38",
    (12, False): "ae2df0284087eb7d358149875459cf02be2e636e6942979ab0aeaceac970aa38",
    (13, True): "539c544ff2f12cff177edaa049a13f5c5d9fd4e967334cd01b12effb189e25e3",
    (13, False): "c60a230ce1743f499986cd2be79607fc195a70dac2b001571e8791704f8d001e",
    (14, True): "f030a6a1cdcb734434e692ef12d8ff401968203e6f820372f6f72d969d6738d8",
    (14, False): "3f31216498425bbbc235baddf6c5360627b8e742626059dbbcab96bd04d1f26f",
    (15, True): "1ca4f79d6ff2a8ec1f3b133be7e67a3ee043e73db4b74b1c89aa088abae22684",
    (15, False): "a5b3216b4b2b7c4474af557f55f22bbe330e644d0e3ae86edde45a9ac4642491",
    (16, True): "0720157bd50044ec0bea80d89eff5559b1647a0c885eb1da60594e2d7c47c049",
    (16, False): "ea4026c7438cdc54b350e4ed8d66496df1f80c63b7cf48123fd28290427e7fe0",
    (17, True): "08f7c5fbafa8d327473ae59e33277eb90b27fad2719087b24233a935b870ed8b",
    (17, False): "d10a9598cb08a58138f1a3a9bcd5305a20cbf1e0224fe85b15fb873a58a3a1a7",
    (18, True): "bae25b911be3283f48e2e3e960068ae140e90894840e10061dc74cc60af68629",
    (18, False): "ac01706efdd05f57d1a098f6a22fc9fae1854e7d9a6e39aa8617e24314cccca5",
    (19, True): "501bc101bc704d3190080389cbde2fad4a001250fcd37af5dd6b5651ee9ee3f1",
    (19, False): "03dd3086b9fd9bdae216616aa261f839394365ce605d69ce0b7633026f3665ac",
    (20, True): "10e03e9f9eccc55c890e76c504d3449aba1d930b8a530dcefb9f719af5823237",
    (20, False): "5402410769d05d760ebca2e82ecadf21cdf204dd1f70d134326221d39ee45db2",
    (21, True): "a54562e01267d85eb2921629b83bb4570ac344e6b854a93a2abc566b947f5339",
    (21, False): "89f25efdf97f0c7f784e654796952f0f4fb451881afefff4f4ab1b606344d597",
    (22, True): "5849d38b62d79f34592937190d1a571d5659879e54924c40d62e63b7fb1ed8e5",
    (22, False): "84ff749c746a7c32e9e313e05299c064cc41da5ee2c15a520e6a91ee68f280f1",
    (23, True): "5b8dc57dc4c223152e516519bde94b2046a666ea4b659f1ca43edf2d23061193",
    (23, False): "92c167b4cc734ffeb0ebf7635e239a72563d85a9919cef6517ba6900690a47da",
    (24, True): "fb2572eeb875e803b380db1139dd6f739b172acfa373c994066850888cdc84ba",
    (24, False): "6bdfd8148924b967177a8a687133b333d0b60660376e0aa92304d9dcdc9c7b51",
    (25, True): "c2d59be5a360b9ba007e5b75cee1d5e69cf941a84f711b96bb7b2616e01e42b4",
    (25, False): "5246fb32d5dc77fcc610e8dfc5a84f9cdde054671ee22b7311fd1f80af92f9a5",
    (26, True): "6bea0acddae61cca39fccb21230533656d0d31059c5e5b8d101a20d9158c2b7b",
    (26, False): "6b74a3e6c72b9b671bed34926abd76bd304fb09719710009d3ab8ebac4fcc092",
    (27, True): "9d373a18de642f1a7b204f0b94c686600737a6b648de901864916bcac5bef66e",
    (27, False): "ca96285223d5d6c989456a7839604dc249b7f1ab4943c97fa7730f359356e4c2",
    (28, True): "f27dc20115e9db22f3dfd655efe8c0580a297ec93fb96cdccf50c419bde25628",
    (28, False): "ed9665325cd6355cac0e3dc2008fee6bf98b22a79972a072a38025c082f52ee7",
    (29, True): "5dac852eaca8ac2b50294dff3299d808a0eaf29f8ae827ce054173fc0a52daad",
    (29, False): "cf5fc4d88bf16a2c02324e71bb911c566d15339a2d7b5dfe6593fce29a8505f6",
    (30, True): "cadc1fc4f015c27977a10c4ac7040f9abb41c88e76accc5042214633362da842",
    (30, False): "3f9ee66742e1e51304df7c421f4f6da690746b5208da89986c3e9503ca012df4",
    (31, True): "44c7846857c2d655e9f4f6a8c63002b7220b500cb01d63c6e3cca8b4422001f2",
    (31, False): "88519e193b0dd924fb9968b5f76798b6e926a82d1a10bbbd52e2d9c602737ba6",
    (32, True): "176d15b38099bfe4a08d79e15ea11cbaa724447a611d4e1e2b3fc85eb5c3f82c",
    (32, False): "afc1f81b0f5929e865541f91f66c3fa8bad90dbbd3e2c37ca80a37e30c7fcec1",
    (33, True): "124d9ff089b7279d2051c2351178da723e396bbb9ded6a650c20b81154960024",
    (33, False): "1f76ac529567aeaefd40aa878cfeb0d592bd0bec5179dfd2974ce8ad03dd9086",
    (34, True): "93be8d8373a69b22e24fc0d8c1b697579402efa10a91977b6bbd1b9948a32e45",
    (34, False): "e9bc396d3e3ad64b4c9a302e931d2d980af92be06c2d9d41a12041117c859f82",
    (35, True): "5521fa28c9c646051b3ec93d8a4143da169eedd63cdd66f195913aaa03f53db0",
    (35, False): "61f155f5d2719c96ddc0561e9123d65c120f31d1459d3a68daaf47a6d8cc4248",
    (36, True): "a6680b6a77c3cd8554ae27e1f88525de9db36b0bc711dfce19b60f757ba118fc",
    (36, False): "909eaf539333c5f311289c6bc549fc8c625b60a86ab17d2d03c46872a88726ce",
    (37, True): "be4baabba1b66d25ad5c26c92a595483e57ed58db496bf07d49c51dafcb849ef",
    (37, False): "35adc64bd0818722c690803f69af2630e0b19128e4ddaaeab8569046b37f283e",
    (38, True): "ed861b13fe0d9ce564dd3e19edd1c23b5f0ac7fe4ab627dd5ca07c84dc19b944",
    (38, False): "ed8ee36916c3a79dbb37d2a396a5d79a656cfd99ad9ad6edd3d19f751211741a",
    (39, True): "5d551986708d7a09c308319d83c36a84eb1a20fc711604b98ac73e34321e2d4b",
    (39, False): "ce59deb95ce71ee6f05cc96f3f3ed7ce9e26529ddedb6b8859e07aabec2b4cfd",
}

FOREIGN_ROW_DIGEST = (
    "c97604d532c01c82d6fa551fe37e12299b17a8d9dfcd82b9125307c46af54718"
)


def test_profile_tiles():
    tiles = _profile_tiles()
    assert len(tiles) == 18
    got = [_result_digest(conmerge(tile, width=16, sort=True)) for tile in tiles]
    assert got == PROFILE_DIGESTS


@pytest.mark.parametrize("sort", [True, False])
@pytest.mark.parametrize("seed", range(40))
def test_random_tile(seed, sort):
    mask, width = _random_tile(seed)
    assert _result_digest(conmerge(mask, width=width, sort=sort)) == (
        RANDOM_DIGESTS[seed, sort]
    )


def test_incoming_block_with_foreign_rows():
    """``try_merge`` of a fresh base with an already-merged incoming block:
    the incoming cells that read a conflict line keep their input rows."""
    keys = []
    foreign = 0
    for seed in range(64):
        rng = np.random.default_rng(1000 + seed)
        rows = int(rng.integers(3, 9))
        width = int(rng.integers(1, 5))
        grids = [rng.random((rows, width)) < p for p in (0.45, 0.3, 0.35)]
        (a,), (b,), (base,) = (
            _fresh(grid, 100 * i) for i, grid in enumerate(grids)
        )
        first = try_merge(a, b)
        if not first.success:
            keys.append(first.cycles)
            continue
        incoming = first.merged
        foreign += sum(c.input_row != c.lane for c in incoming.entries())
        attempt = try_merge(base, incoming)
        keys.append((
            attempt.success,
            attempt.cycles,
            _block_key(attempt.merged) if attempt.success else None,
        ))
    assert foreign > 0
    assert _digest(keys) == FOREIGN_ROW_DIGEST
