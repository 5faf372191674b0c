import numpy as np
import pytest

import attenpat
from attenpat import experiments
from attenpat.experiments import ScenarioConfig
from attenpat.models import (
    ConfigError,
    ConstantModel,
    NswModel,
    PowerLawModel,
    TabulatedWeakModel,
    UnsupportedModelError,
    eval_kappa,
    eval_kstar,
    k_infinity,
    model_from_spec,
    model_to_spec,
    model_tag,
    validate_model,
)
from attenpat.wavefield import make_sensors

CONSTANT = ConstantModel(k_inf=0.45)
NSW = NswModel(tau=0.11, tau_tilde=0.10)
POWER = PowerLawModel(amplitude=0.005, exponent=2.0)
TABULATED = TabulatedWeakModel(
    omega=np.linspace(-50, 50, 801),
    kstar=eval_kstar(NSW, np.linspace(-50, 50, 801)),
    k_inf=k_infinity(NSW),
)

ALL_MODELS = [CONSTANT, NSW, POWER, TABULATED]
WEAK_MODELS = [CONSTANT, NSW, TABULATED]


class TestEvalKappa:
    def test_constant_value(self):
        assert eval_kappa(CONSTANT, 2.0) == pytest.approx(2.0 + 0.45j, abs=1e-15)

    def test_nsw_at_zero(self):
        assert eval_kappa(NSW, 0.0) == 0.0

    def test_nsw_high_frequency_limit(self):
        # kappa(w) - w -> 1j*(tau - tau_tilde)/(2 tau tau_tilde) as w grows
        k_inf = (0.11 - 0.10) / (2 * 0.11 * 0.10)
        assert abs(eval_kappa(NSW, 1e4) - 1e4 - 1j * k_inf) < 1e-3

    def test_power_law(self):
        assert eval_kappa(POWER, 10.0) == pytest.approx(10.0 + 0.5j)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eval_kappa(NSW, np.nan)
        with pytest.raises(ValueError):
            eval_kappa(CONSTANT, np.inf)

    def test_vectorized(self):
        w = np.linspace(-5, 5, 11)
        k = eval_kappa(NSW, w)
        assert k.shape == w.shape
        assert np.allclose(k[5], 0.0)


class TestKInfinity:
    def test_constant(self):
        assert k_infinity(CONSTANT) == 0.45

    def test_nsw(self):
        assert k_infinity(NSW) == pytest.approx(0.01 / 0.022, rel=1e-14)

    def test_lossless_limit(self):
        assert k_infinity(NswModel(tau=0.1, tau_tilde=0.1)) == 0.0

    def test_power_law_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            k_infinity(POWER)


class TestEvalKstar:
    def test_constant_is_zero(self):
        w = np.linspace(-30, 30, 61)
        assert np.max(np.abs(eval_kstar(CONSTANT, w))) == 0.0

    def test_nsw_decay_rate(self):
        # |k_star| * |w| stays bounded as w grows
        vals = [abs(eval_kstar(NSW, w)) * w for w in (10.0, 100.0, 1000.0)]
        assert all(v < 5.0 for v in vals)

    def test_nsw_at_zero(self):
        assert eval_kstar(NSW, 0.0) == pytest.approx(-1j * k_infinity(NSW), abs=1e-15)

    def test_tabulated_matches_source_on_grid(self):
        w = np.linspace(-40, 40, 167)
        assert np.allclose(eval_kstar(TABULATED, w), eval_kstar(NSW, w), atol=2e-4)

    def test_tabulated_zero_extension(self):
        assert eval_kstar(TABULATED, 80.0) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
class TestSymbolInvariants:
    def test_symmetry(self, model):
        w = np.linspace(-80.0, 80.0, 1601)
        defect = np.abs(eval_kappa(model, -w) + np.conj(eval_kappa(model, w)))
        assert defect.max() <= 1e-12

    def test_upper_half_plane(self, model):
        w = np.linspace(-80.0, 80.0, 1601)
        assert eval_kappa(model, w).imag.min() >= -1e-12


@pytest.mark.parametrize("model", WEAK_MODELS, ids=lambda m: type(m).__name__)
def test_weak_decomposition_exact(model):
    w = np.linspace(-60.0, 60.0, 481)
    recomposed = w + 1j * k_infinity(model) + eval_kstar(model, w)
    assert np.max(np.abs(eval_kappa(model, w) - recomposed)) <= 1e-12


class TestValidateModel:
    def test_constant_report(self):
        rep = validate_model(CONSTANT)
        assert rep.symmetry_defect <= 1e-14
        assert rep.min_im >= 0.45 - 1e-14
        # |kappa'|^2 + Im kappa = 1 + 0.45 in closed form; central differences
        # only add rounding at the 1e-9 level
        assert rep.derivative_bound_min == pytest.approx(1.45, abs=1e-8)
        assert rep.classification == "weak"
        assert rep.kstar_l2 <= 1e-10

    def test_power_law_is_strong(self):
        rep = validate_model(POWER)
        assert rep.classification == "strong"
        assert rep.strong_fit_beta == pytest.approx(2.0, abs=1e-6)
        assert rep.strong_fit_kappa0 == pytest.approx(0.005, rel=1e-6)

    def test_nsw_is_weak_with_positive_derivative_bound(self):
        rep = validate_model(NSW)
        assert rep.classification == "weak"
        assert rep.derivative_bound_min > 0.0
        assert rep.kstar_l2 > 0.1  # genuinely non-constant law

    def test_non_decaying_remainder_is_neither(self):
        w = np.linspace(-50, 50, 501)
        flat = TabulatedWeakModel(omega=w, kstar=np.full(w.size, 0.3j), k_inf=0.2)
        assert validate_model(flat, np.linspace(-40, 40, 801)).classification == "neither"

    def test_grid_must_be_symmetric(self):
        with pytest.raises(ValueError):
            validate_model(CONSTANT, np.linspace(0.0, 10.0, 100))


class TestModelValidation:
    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantModel(k_inf=-0.1)

    def test_nsw_ordering_enforced(self):
        with pytest.raises(ValueError):
            NswModel(tau=0.1, tau_tilde=0.11)

    def test_power_law_needs_positive_exponent(self):
        with pytest.raises(ValueError):
            PowerLawModel(amplitude=0.1, exponent=0.0)

    def test_tabulated_needs_symmetric_grid(self):
        with pytest.raises(ValueError):
            TabulatedWeakModel(omega=np.linspace(0, 10, 11), kstar=np.zeros(11), k_inf=0.1)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: ConstantModel(k_inf=True), "k_inf"),
            (lambda: ConstantModel(k_inf="0.45"), "k_inf"),
            (lambda: NswModel(tau=True, tau_tilde=0.1), "tau"),
            (lambda: NswModel(tau=0.11, tau_tilde=float("nan")), "tau_tilde"),
            (lambda: PowerLawModel(amplitude=np.inf, exponent=2.0), "amplitude"),
            (lambda: PowerLawModel(amplitude=0.1, exponent=False), "exponent"),
            (lambda: TabulatedWeakModel(np.linspace(-1, 1, 3), np.zeros(3), k_inf=True), "k_inf"),
        ],
    )
    def test_parameters_are_finite_numbers(self, build, field):
        with pytest.raises(ValueError, match=f"^{field}:"):
            build()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
    def test_tabulated_table_must_be_finite(self, bad):
        kstar = np.zeros(3, dtype=complex)
        kstar[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            TabulatedWeakModel(omega=np.linspace(-1, 1, 3), kstar=kstar, k_inf=0.1)
        with pytest.raises(ValueError, match="must be finite"):
            TabulatedWeakModel(omega=np.array([-1.0, bad.real, 1.0]), kstar=np.zeros(3),
                               k_inf=0.1)


class TestModelTag:
    def test_tabulated_tag_is_stable_across_processes(self):
        import os
        import subprocess
        import sys

        import attenpat

        code = (
            "import numpy as np\n"
            "from attenpat.models import NswModel, TabulatedWeakModel, eval_kstar, "
            "k_infinity, model_tag\n"
            "nsw = NswModel(tau=0.11, tau_tilde=0.10)\n"
            "w = np.linspace(-50, 50, 801)\n"
            "print(model_tag(TabulatedWeakModel(omega=w, kstar=eval_kstar(nsw, w), "
            "k_inf=k_infinity(nsw))))\n"
        )
        tags = set()
        for seed in ("1", "2"):
            src = os.path.dirname(os.path.dirname(os.path.abspath(attenpat.__file__)))
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True)
            tags.add(out.stdout.strip())
        assert tags == {model_tag(TABULATED)}

    def test_tabulated_tag_tracks_the_table(self):
        other = TabulatedWeakModel(omega=TABULATED.omega, kstar=TABULATED.kstar * 1.01,
                                   k_inf=TABULATED.k_inf)
        assert model_tag(other) != model_tag(TABULATED)


    @pytest.mark.parametrize("model, tag", [
        (CONSTANT, "constant(k_inf=0.45000000000000001)"),
        (NSW, "nsw(tau=0.11,tau_tilde=0.10000000000000001)"),
        (POWER, "power-law(amplitude=0.0050000000000000001,exponent=2)"),
        (TabulatedWeakModel(omega=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
                            kstar=np.array([0.0, 0.1 - 0.2j, 0.0, 0.1 + 0.2j, 0.0]), k_inf=0.3),
         "tabulated(k_inf=0.29999999999999999,n=5,h=5876f313)"),
    ], ids=["constant", "nsw", "power-law", "tabulated"])
    def test_tag_strings_are_pinned(self, model, tag):
        # the tag feeds AttenuationSystem.fingerprint and the image sidecars
        assert model_tag(model) == tag


class TestReadKind:
    """The one reader of the kind-tagged mappings, through each section that uses it."""

    @staticmethod
    def read(section, spec):
        if section == "model":
            return model_from_spec(spec)
        if section == "geometry":  # a wave sidecar's sensor geometry
            return make_sensors(spec)
        return ScenarioConfig.from_dict({section: spec})

    @pytest.mark.parametrize("section, spec, message", [
        ("model", {"kind": "szabo"}, "model.kind: unknown value 'szabo'"),
        ("model", {"kind": "constant", "k_inf": 0.45, "tau": 0.1},
         "model.tau: unknown field for kind 'constant'"),
        ("model", {"kind": "nsw", "tau_tilde": 0.1}, "model.tau: missing for kind 'nsw'"),
        ("model", {"tau": 0.11, "tau_tilde": 0.1}, "model.kind: missing"),
        ("phantom", {"kind": "star"}, "phantom.kind: unknown value 'star'"),
        ("phantom", {"kind": "shepp-logan", "radius": 0.3},
         "phantom.radius: unknown field for kind 'shepp-logan'"),
        ("phantom", {"kind": "ellipses"}, "phantom.items: missing for kind 'ellipses'"),
        ("geometry", {"kind": "helix", "count": 8}, "geometry.kind: unknown value 'helix'"),
        ("geometry", {"kind": "circle", "radius": 1.7, "count": 8, "standoff": 1.7},
         "geometry.standoff: unknown field for kind 'circle'"),
        ("geometry", {"kind": "circle", "radius": 1.7},
         "geometry.count: missing for kind 'circle'"),
        ("regularization", {"kind": "ridge", "lam": 1e-3},
         "regularization.kind: unknown value 'ridge'"),
        ("regularization", {"kind": "tikhonov", "lam": 1e-3, "lamda": 1e-3},
         "regularization.lamda: unknown field for kind 'tikhonov'"),
        ("regularization", {"kind": "tikhonov"},
         "regularization.lam: missing for kind 'tikhonov'"),
    ])
    def test_messages(self, section, spec, message):
        with pytest.raises(ConfigError) as info:
            self.read(section, spec)
        assert str(info.value) == message

    def test_one_config_error_class(self):
        assert attenpat.ConfigError is attenpat.models.ConfigError is experiments.ConfigError


class TestSpecRoundTrip:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_round_trip(self, model):
        again = model_from_spec(model_to_spec(model))
        w = np.linspace(-15, 15, 31)
        assert np.allclose(eval_kappa(again, w), eval_kappa(model, w), atol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="model.kind"):
            model_from_spec({"kind": "szabo"})

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="model.tau"):
            model_from_spec({"kind": "nsw"})

    @pytest.mark.parametrize(
        "field, bad",
        [("omega", "0.0"), ("omega", np.nan), ("kstar_real", True), ("kstar_real", np.inf),
         ("kstar_imag", np.nan), ("kstar_imag", None)],
    )
    def test_tabulated_elements_named(self, field, bad):
        spec = {"kind": "tabulated", "omega": [-50.0, 0.0, 50.0],
                "kstar_real": [0.0, 0.1, 0.0], "kstar_imag": [0.0, 0.2, 0.0], "k_inf": 0.3}
        spec[field][1] = bad
        with pytest.raises(ValueError, match=f"^model.{field}: expected a finite number"):
            model_from_spec(spec)

    def test_tabulated_table_must_be_a_list(self):
        spec = {"kind": "tabulated", "omega": [-50.0, 0.0, 50.0],
                "kstar_real": 0.0, "kstar_imag": [0.0, 0.2, 0.0], "k_inf": 0.3}
        with pytest.raises(ValueError, match="^model.kstar_real: .*not iterable"):
            model_from_spec(spec)
