"""Pinned output bits of the noisy photonic pass and of the benchmark.

The digests below were computed before the quantizer's integer codes were
carried through the layer walk; that change, and any later one that claims
to move no output bit, must keep every one of them. Logits pass through
BLAS GEMMs, whose rounding depends on the BLAS build and the CPU kernel it
picks, so their pins are checked where a probe of float64 GEMMs gives the
bits of one of the two kernels they were computed with.
"""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mrbnn import config
from mrbnn.bnn import LayerKind
from mrbnn.simulator import noisy_inference
from test_simulator import dispatch_model


def gemm_digest():
    """The first 16 hex digits of the sha256 of float64 products at the
    inner sizes the pinned passes multiply over."""
    rng = np.random.Generator(np.random.PCG64(0))
    h = hashlib.sha256()
    for rows in (7, 3136):
        for k in (8, 12, 24, 27, 36, 128, 144, 1568):
            a, b = rng.uniform(-1, 1, (rows, k)), rng.uniform(-1, 1, (32, k))
            h.update((a @ b.T).tobytes())
    return h.hexdigest()[:16]


# gemm_digest() under OpenBLAS's AVX-512 (SkylakeX) and AVX2 (Haswell, Zen)
# kernels, where the logits were pinned
GEMM_KERNELS = ("9d8eb8df77062a7e", "2e3ef82a0072088f")
KERNEL = {d: i for i, d in enumerate(GEMM_KERNELS)}.get(gemm_digest())
same_gemm = pytest.mark.skipif(
    KERNEL is None, reason="this BLAS rounds float64 GEMMs otherwise than "
                           "those the logits were pinned on")


def logits_digest(env, cfg, case, bits, act_range, fraction, nan):
    """The first 16 hex digits of the sha256 of the little-endian float64
    logits of ``dispatch_model(case)`` at map seed 3, with every activation
    layer's range set to ``act_range``, and input 0 holding a NaN if
    ``nan``. A case ``name/d`` is model ``name`` with its inputs divided by
    d."""
    name, _, divisor = case.partition("/")
    model, x = dispatch_model(name, np.random.Generator(np.random.PCG64(59)),
                              bits)
    model = replace(model, layers=tuple(
        replace(l, act_range=act_range) if l.kind is LayerKind.ACTIVATION
        else l for l in model.layers))
    if divisor:
        x /= int(divisor)
    if nan:
        x.flat[5] = np.nan
    logits = noisy_inference(model, x, None, cfg, env, fraction, seed=3).logits
    data = np.ascontiguousarray(logits, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


# "avg-pool" saturates conv 1 at the (0, 1) range, so its logits are the
# same at every bit width there; at 1/16 of its inputs they are not, and
# both quantizers feed readers that are not binarized: an average pool and
# a full-precision FC
MODELS = ("conv-sim", "bn-after-act", "avg-pool", "avg-pool/16")
CASES = [(case, bits, act_range, fraction, False)
         for case in MODELS
         for bits in (1, 2, 4, 5, 6, 24, 40)
         for act_range in ((0.0, 1.0), (-1.0, 1.0))
         for fraction in (0.5, 1.0)] + [
    (case, 2, (0.0, 1.0), fraction, True)
    for case in MODELS
    for fraction in (0.5, 1.0)]

# each case's digest under the GEMM_KERNELS, in their order
PINS = {
    ('conv-sim', 1, (0.0, 1.0), 0.5, False):
        ('ad837b271218d156', 'ad837b271218d156'),
    ('conv-sim', 1, (0.0, 1.0), 1.0, False):
        ('7a01b75376adec6e', '7a01b75376adec6e'),
    ('conv-sim', 1, (-1.0, 1.0), 0.5, False):
        ('8bc36c93c9cae189', '8bc36c93c9cae189'),
    ('conv-sim', 1, (-1.0, 1.0), 1.0, False):
        ('8bc36c93c9cae189', '8bc36c93c9cae189'),
    ('conv-sim', 2, (0.0, 1.0), 0.5, False):
        ('03c27e3fe2ed9754', '03c27e3fe2ed9754'),
    ('conv-sim', 2, (0.0, 1.0), 1.0, False):
        ('db611a14a85c0d2f', 'db611a14a85c0d2f'),
    ('conv-sim', 2, (-1.0, 1.0), 0.5, False):
        ('49a06dadcce0ba35', '35faec51412d3fd7'),
    ('conv-sim', 2, (-1.0, 1.0), 1.0, False):
        ('ce656a07ce1db1f9', 'e57d08f4bc008056'),
    ('conv-sim', 4, (0.0, 1.0), 0.5, False):
        ('d178b2064a19ec96', 'd178b2064a19ec96'),
    ('conv-sim', 4, (0.0, 1.0), 1.0, False):
        ('e7f7453973b3f6ea', 'e7f7453973b3f6ea'),
    ('conv-sim', 4, (-1.0, 1.0), 0.5, False):
        ('64b69dc153a7e299', '64b69dc153a7e299'),
    ('conv-sim', 4, (-1.0, 1.0), 1.0, False):
        ('031e5c8b639ae97e', '49783cf2eda61b10'),
    ('conv-sim', 5, (0.0, 1.0), 0.5, False):
        ('eeac80442a958372', 'eeac80442a958372'),
    ('conv-sim', 5, (0.0, 1.0), 1.0, False):
        ('b312d58c2b955ce7', 'b312d58c2b955ce7'),
    ('conv-sim', 5, (-1.0, 1.0), 0.5, False):
        ('e79e323b3db24d8c', 'e79e323b3db24d8c'),
    ('conv-sim', 5, (-1.0, 1.0), 1.0, False):
        ('62daa3f355f373f8', '62daa3f355f373f8'),
    ('conv-sim', 6, (0.0, 1.0), 0.5, False):
        ('ddd6d96d7b92e03c', 'ddd6d96d7b92e03c'),
    ('conv-sim', 6, (0.0, 1.0), 1.0, False):
        ('88a19d9aaa671eff', '88a19d9aaa671eff'),
    ('conv-sim', 6, (-1.0, 1.0), 0.5, False):
        ('fc427df078bc1948', 'fc427df078bc1948'),
    ('conv-sim', 6, (-1.0, 1.0), 1.0, False):
        ('85b9580ae395bc06', '85b9580ae395bc06'),
    ('conv-sim', 24, (0.0, 1.0), 0.5, False):
        ('704ef14129a15fa2', '704ef14129a15fa2'),
    ('conv-sim', 24, (0.0, 1.0), 1.0, False):
        ('75d4cd3d28205059', '75d4cd3d28205059'),
    ('conv-sim', 24, (-1.0, 1.0), 0.5, False):
        ('f5f12bd9d5093cdd', 'f5f12bd9d5093cdd'),
    ('conv-sim', 24, (-1.0, 1.0), 1.0, False):
        ('6b9829755e708b48', '6b9829755e708b48'),
    ('conv-sim', 40, (0.0, 1.0), 0.5, False):
        ('5b44378a0c1e576d', '5b44378a0c1e576d'),
    ('conv-sim', 40, (0.0, 1.0), 1.0, False):
        ('b8576ed389970893', 'b8576ed389970893'),
    ('conv-sim', 40, (-1.0, 1.0), 0.5, False):
        ('baf644fa98fd4ded', 'baf644fa98fd4ded'),
    ('conv-sim', 40, (-1.0, 1.0), 1.0, False):
        ('58557f27853ab570', '58557f27853ab570'),
    ('bn-after-act', 1, (0.0, 1.0), 0.5, False):
        ('d6c8c6881a1f3c75', 'd6c8c6881a1f3c75'),
    ('bn-after-act', 1, (0.0, 1.0), 1.0, False):
        ('b0db2b393fc01dca', '767deef1194d82d0'),
    ('bn-after-act', 1, (-1.0, 1.0), 0.5, False):
        ('1d3c17aa07d3ecb6', '1d3c17aa07d3ecb6'),
    ('bn-after-act', 1, (-1.0, 1.0), 1.0, False):
        ('19770bae3a9c69b6', '1c1eff156909303c'),
    ('bn-after-act', 2, (0.0, 1.0), 0.5, False):
        ('4e01dc25805f7398', '4e01dc25805f7398'),
    ('bn-after-act', 2, (0.0, 1.0), 1.0, False):
        ('ad4fa767537f45b8', 'ad4fa767537f45b8'),
    ('bn-after-act', 2, (-1.0, 1.0), 0.5, False):
        ('74a5d91238eb6804', '74a5d91238eb6804'),
    ('bn-after-act', 2, (-1.0, 1.0), 1.0, False):
        ('56a2053b5077ed53', '75158e4bb48bdc9f'),
    ('bn-after-act', 4, (0.0, 1.0), 0.5, False):
        ('b5c2e3ac5ae5cbe5', 'b5c2e3ac5ae5cbe5'),
    ('bn-after-act', 4, (0.0, 1.0), 1.0, False):
        ('d8d67a6bff7bd90f', '2460aa4a2d1bce0c'),
    ('bn-after-act', 4, (-1.0, 1.0), 0.5, False):
        ('5eaffbc10505c919', '5eaffbc10505c919'),
    ('bn-after-act', 4, (-1.0, 1.0), 1.0, False):
        ('28a49d5123716a9b', '575f5f578963aa90'),
    ('bn-after-act', 5, (0.0, 1.0), 0.5, False):
        ('8348587dd39b0b55', '8348587dd39b0b55'),
    ('bn-after-act', 5, (0.0, 1.0), 1.0, False):
        ('b1fdcfd23eaae781', '032134186ba07563'),
    ('bn-after-act', 5, (-1.0, 1.0), 0.5, False):
        ('dc331a3882ad40b0', 'dc331a3882ad40b0'),
    ('bn-after-act', 5, (-1.0, 1.0), 1.0, False):
        ('10ef208d95cee055', '5f4501a0c868bb71'),
    ('bn-after-act', 6, (0.0, 1.0), 0.5, False):
        ('8b85e22a01845ed6', '8b85e22a01845ed6'),
    ('bn-after-act', 6, (0.0, 1.0), 1.0, False):
        ('8a6db7667dd2c1be', '4d79b15c3ee10e8d'),
    ('bn-after-act', 6, (-1.0, 1.0), 0.5, False):
        ('f895f96cfaef24f0', 'f895f96cfaef24f0'),
    ('bn-after-act', 6, (-1.0, 1.0), 1.0, False):
        ('2b681b75876d3064', 'd022b3a4c45d7034'),
    ('bn-after-act', 24, (0.0, 1.0), 0.5, False):
        ('b428df8b9259fe1a', 'b428df8b9259fe1a'),
    ('bn-after-act', 24, (0.0, 1.0), 1.0, False):
        ('a563d1371bd66894', '0ce3d85e9dfc5c27'),
    ('bn-after-act', 24, (-1.0, 1.0), 0.5, False):
        ('0b281becfbcb16da', '0b281becfbcb16da'),
    ('bn-after-act', 24, (-1.0, 1.0), 1.0, False):
        ('831a5c47c4b1bd59', '59cfa35ed5bf77c6'),
    ('bn-after-act', 40, (0.0, 1.0), 0.5, False):
        ('d7c6323e0d2a54b6', 'd7c6323e0d2a54b6'),
    ('bn-after-act', 40, (0.0, 1.0), 1.0, False):
        ('f25ab9663702bfce', 'acb9c08ce154e848'),
    ('bn-after-act', 40, (-1.0, 1.0), 0.5, False):
        ('118a06cdb8715e2c', '118a06cdb8715e2c'),
    ('bn-after-act', 40, (-1.0, 1.0), 1.0, False):
        ('ca2c2e8f4e4cabef', '246b2328d706c9de'),
    ('avg-pool', 1, (0.0, 1.0), 0.5, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 1, (0.0, 1.0), 1.0, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 1, (-1.0, 1.0), 0.5, False):
        ('ac0e6c862c7cb197', 'd1d51c0948c68b86'),
    ('avg-pool', 1, (-1.0, 1.0), 1.0, False):
        ('ac0e6c862c7cb197', 'd1d51c0948c68b86'),
    ('avg-pool', 2, (0.0, 1.0), 0.5, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 2, (0.0, 1.0), 1.0, False):
        ('97eb82929d2350a4', '5467df17f03a5c5a'),
    ('avg-pool', 2, (-1.0, 1.0), 0.5, False):
        ('48636c8d23e08778', 'ac9afccac02fe86b'),
    ('avg-pool', 2, (-1.0, 1.0), 1.0, False):
        ('48636c8d23e08778', 'ac9afccac02fe86b'),
    ('avg-pool', 4, (0.0, 1.0), 0.5, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 4, (0.0, 1.0), 1.0, False):
        ('57b36571b55f9045', '3e649518263b5fe4'),
    ('avg-pool', 4, (-1.0, 1.0), 0.5, False):
        ('9603c1db535558f9', '19f1373eb61fccc7'),
    ('avg-pool', 4, (-1.0, 1.0), 1.0, False):
        ('c88e62a0b04d3712', 'a537fbea2877f78b'),
    ('avg-pool', 5, (0.0, 1.0), 0.5, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 5, (0.0, 1.0), 1.0, False):
        ('ea2253b9c94ec8c8', '069cd3c51a789d31'),
    ('avg-pool', 5, (-1.0, 1.0), 0.5, False):
        ('6aa70817aef1fefb', '66f8376992111ab4'),
    ('avg-pool', 5, (-1.0, 1.0), 1.0, False):
        ('4b4c26124343cd57', 'b8812ac2657d60d8'),
    ('avg-pool', 6, (0.0, 1.0), 0.5, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 6, (0.0, 1.0), 1.0, False):
        ('a671b1607df1eb67', '2c59a3d023beeeb6'),
    ('avg-pool', 6, (-1.0, 1.0), 0.5, False):
        ('75b12f092e47d10a', 'ce90c67b4ead6225'),
    ('avg-pool', 6, (-1.0, 1.0), 1.0, False):
        ('f51e8b19e900e210', 'a29f37abafb71246'),
    ('avg-pool', 24, (0.0, 1.0), 0.5, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 24, (0.0, 1.0), 1.0, False):
        ('31205b0f38f9c866', 'd408cb4d66194908'),
    ('avg-pool', 24, (-1.0, 1.0), 0.5, False):
        ('fc208190647dd556', '36b4e4eb66e758c5'),
    ('avg-pool', 24, (-1.0, 1.0), 1.0, False):
        ('14c59607b9e8e1fa', '46bd638ae9723775'),
    ('avg-pool', 40, (0.0, 1.0), 0.5, False):
        ('88075c74236551e2', '7b1ece5d7c0a6f1c'),
    ('avg-pool', 40, (0.0, 1.0), 1.0, False):
        ('ff377c8e834b3a40', '8036202b2e3d90d0'),
    ('avg-pool', 40, (-1.0, 1.0), 0.5, False):
        ('3e3d24da9cdbd484', '5801def47ffbac6b'),
    ('avg-pool', 40, (-1.0, 1.0), 1.0, False):
        ('6e507693a5c2781b', '7d4aedec163bb871'),
    ('avg-pool/16', 1, (0.0, 1.0), 0.5, False):
        ('2dfba633817046c7', '2dfba633817046c7'),
    ('avg-pool/16', 1, (0.0, 1.0), 1.0, False):
        ('2dfba633817046c7', '2dfba633817046c7'),
    ('avg-pool/16', 1, (-1.0, 1.0), 0.5, False):
        ('ac0e6c862c7cb197', 'd1d51c0948c68b86'),
    ('avg-pool/16', 1, (-1.0, 1.0), 1.0, False):
        ('ac0e6c862c7cb197', 'd1d51c0948c68b86'),
    ('avg-pool/16', 2, (0.0, 1.0), 0.5, False):
        ('189f624a81a8faf8', 'f598d29cefc2b982'),
    ('avg-pool/16', 2, (0.0, 1.0), 1.0, False):
        ('d7e2e0b020aabfdf', '4307e5e7b2be8e2c'),
    ('avg-pool/16', 2, (-1.0, 1.0), 0.5, False):
        ('48636c8d23e08778', 'ac9afccac02fe86b'),
    ('avg-pool/16', 2, (-1.0, 1.0), 1.0, False):
        ('048c4a31078e6d28', 'efcb813cdc973961'),
    ('avg-pool/16', 4, (0.0, 1.0), 0.5, False):
        ('2177a79129f4f356', 'a0c97fef9815df58'),
    ('avg-pool/16', 4, (0.0, 1.0), 1.0, False):
        ('67d5b3d225b269ca', 'a1cc389d27b31fec'),
    ('avg-pool/16', 4, (-1.0, 1.0), 0.5, False):
        ('1fc9d1e19e6d933c', '45e6a6fc8870045c'),
    ('avg-pool/16', 4, (-1.0, 1.0), 1.0, False):
        ('9153d761315465bf', 'b0d293d83657154c'),
    ('avg-pool/16', 5, (0.0, 1.0), 0.5, False):
        ('840f180d62add011', '660d7a8e5dc517eb'),
    ('avg-pool/16', 5, (0.0, 1.0), 1.0, False):
        ('f1df30b400d79ea7', 'cabdc5aa2d6e177f'),
    ('avg-pool/16', 5, (-1.0, 1.0), 0.5, False):
        ('81c41bc2dfc6cb88', 'db210d94b1b133a3'),
    ('avg-pool/16', 5, (-1.0, 1.0), 1.0, False):
        ('127421bd30c977f6', '09f9e5781a68a5ed'),
    ('avg-pool/16', 6, (0.0, 1.0), 0.5, False):
        ('42e59e0579c96296', '3cec6751be873045'),
    ('avg-pool/16', 6, (0.0, 1.0), 1.0, False):
        ('2c22370749060813', '54be25d90793ce85'),
    ('avg-pool/16', 6, (-1.0, 1.0), 0.5, False):
        ('6cde2d1469882e39', '361e8b3db167a611'),
    ('avg-pool/16', 6, (-1.0, 1.0), 1.0, False):
        ('b1fedf75f65a76c5', '40d85a0001387568'),
    ('avg-pool/16', 24, (0.0, 1.0), 0.5, False):
        ('f29e94f4d83edf56', '302718ba7b5f0001'),
    ('avg-pool/16', 24, (0.0, 1.0), 1.0, False):
        ('93a4becfe7a730cc', '69acbc26bf4ff038'),
    ('avg-pool/16', 24, (-1.0, 1.0), 0.5, False):
        ('8025556320c7f1ae', '1d3c69a2f356aa53'),
    ('avg-pool/16', 24, (-1.0, 1.0), 1.0, False):
        ('f9730432e4e60887', '82c395cd94d1d3cb'),
    ('avg-pool/16', 40, (0.0, 1.0), 0.5, False):
        ('55a781495329dda8', 'fb54fcf22d81eba7'),
    ('avg-pool/16', 40, (0.0, 1.0), 1.0, False):
        ('ef11a1fdf2d146f6', 'a5a9d89c1690abc4'),
    ('avg-pool/16', 40, (-1.0, 1.0), 0.5, False):
        ('7c53949b264a71b9', 'a11d211ccfe5dbd7'),
    ('avg-pool/16', 40, (-1.0, 1.0), 1.0, False):
        ('3dd9a2a36697448c', 'c66d4b573472956f'),
    ('conv-sim', 2, (0.0, 1.0), 0.5, True):
        ('da5cbda7c33cfe17', 'da5cbda7c33cfe17'),
    ('conv-sim', 2, (0.0, 1.0), 1.0, True):
        ('70fe75e8dc488408', '70fe75e8dc488408'),
    ('bn-after-act', 2, (0.0, 1.0), 0.5, True):
        ('5cc8426f7b6208d9', '5cc8426f7b6208d9'),
    ('bn-after-act', 2, (0.0, 1.0), 1.0, True):
        ('4cc61f701b63023b', '4cc61f701b63023b'),
    ('avg-pool', 2, (0.0, 1.0), 0.5, True):
        ('cc077a5106fd65f4', '64e38a36f75dc2c0'),
    ('avg-pool', 2, (0.0, 1.0), 1.0, True):
        ('aa1e15ac153bfe3f', '6de2c004b799b3ee'),
    ('avg-pool/16', 2, (0.0, 1.0), 0.5, True):
        ('2558292ef1ab43cd', 'a0fe394cd5eb2858'),
    ('avg-pool/16', 2, (0.0, 1.0), 1.0, True):
        ('ea4dcd4f7e83fec9', 'b35e6551f88a6efe'),
}


@pytest.fixture(scope="module")
def eo_cfg(toolkit_config):
    return config.arch_config(toolkit_config, "eo")


@same_gemm
@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_noisy_logits_keep_their_bits(env, eo_cfg, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logits_digest(env, eo_cfg, *case)
    assert got == PINS[case][KERNEL]


# full-size workloads at their default seeds; fpv_rows and report render
# accuracies and powers at 9 significant digits, logits are the raw bytes
BENCH_DIGESTS = {
    "fpv-mc": {"fpv_rows": "8072393a9268935169f48ac8a844b88f"
                           "613a6e45506b5a2ab87eb242999672de"},
    "conv-sim": {"report": "e30ef1ee668fcb886bb8ba18308fb651"
                           "fd3bb2db2228ca4259922df05dc531cd"},
}
CONV_SIM_LOGITS = ("a24610e1568d638af07a6fee9909b31d"
                   "18786b029b085aaa37596b9a0ff179fa",
                   "17c5beff8ee405cbf4049718a6937d8d"
                   "3cbdc3411bbaebea776db3de63ade571")


@pytest.fixture(scope="module")
def bench_digests(workloads):
    """Each workload's digests, and the problems its checks found."""
    out = {}
    for name in BENCH_DIGESTS:
        workload = workloads.WORKLOADS[name](None, False)
        digests, problems = workload.digest()
        out[name] = digests, problems + workload.untimed_checks()
    return out


@pytest.mark.parametrize("name", BENCH_DIGESTS)
def test_benchmark_digests(bench_digests, name):
    digests, problems = bench_digests[name]
    assert problems == []
    assert {k: digests[k] for k in BENCH_DIGESTS[name]} == BENCH_DIGESTS[name]


@same_gemm
def test_conv_sim_logits_keep_their_bits(bench_digests):
    assert bench_digests["conv-sim"][0]["logits"] == CONV_SIM_LOGITS[KERNEL]
