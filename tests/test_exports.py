"""Every name that the package and its modules export resolves."""

import importlib
import pkgutil

import ringcav as rc


def test_every_exported_name_resolves():
    # ringcav, with the CLI names it loads on first use, and each of its
    # modules that defines __all__: every listed name is an attribute,
    # and none is listed twice
    modules = [rc] + [importlib.import_module(f"{rc.__name__}.{m.name}")
                      for m in pkgutil.iter_modules(rc.__path__)
                      if m.name != "__main__"]
    checked = []
    for mod in modules:
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        assert len(set(names)) == len(names), mod.__name__
        assert [n for n in names if not hasattr(mod, n)] == [], mod.__name__
        checked.append(mod.__name__)
    assert {"ringcav", "ringcav.cli", "ringcav.spectra"} <= set(checked)


def test_names_the_benchmark_looks_up_resolve():
    # bench/tracing.py wraps every public function of these modules where
    # it is bound, and bench/ also runs the two oracles; no package code
    # calls these names, so without this test they could go unnoticed
    import oracles
    spectra, stability, sweep, quadrature = (
        importlib.import_module(f"ringcav.{m}")
        for m in ("spectra", "stability", "sweep", "quadrature"))
    assert sweep.stability_verdict is stability.stability_verdict
    assert "stability_verdict" in stability.__all__
    assert spectra.integrate_adaptive is quadrature.integrate_adaptive
    assert "integrate_adaptive" in quadrature.__all__
    assert callable(oracles.trapezoid_momentum_variance)
    assert callable(oracles.characteristic_polynomial_roots)


def test_ringcav_republishes_each_module_interface():
    # each module's __all__ is the one list of its public names: ringcav
    # binds every one of them to the module's object and exports no
    # other name but the CLI's, which it loads on first use
    republished = set()
    for m in pkgutil.iter_modules(rc.__path__):
        if m.name in ("__main__", "quadrature", "cli"):
            continue
        mod = importlib.import_module(f"{rc.__name__}.{m.name}")
        for name in mod.__all__:
            assert getattr(rc, name) is getattr(mod, name), name
            republished.add(name)
    assert set(rc.__all__) == republished | {*rc._CLI_NAMES, "__version__"}
    assert len(rc.__all__) == len(set(rc.__all__))


def test_the_lazy_cli_names_are_the_cli_interface():
    # the loader's list cannot be read off cli without importing it
    assert set(rc._CLI_NAMES) == set(rc.cli.__all__)
    for name in rc._CLI_NAMES:
        assert getattr(rc, name) is getattr(rc.cli, name)
