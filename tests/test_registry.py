"""repro.registry: registration channels, lookup, discovery, listing."""

import pytest

from repro.errors import (
    DuplicateRegistrationError,
    RegistryError,
    UnknownNameError,
)
from repro.registry import (
    FIG11_PARADIGMS,
    FIGURES,
    PARADIGMS,
    REGISTRIES,
    SYSTEMS,
    WORKLOADS,
)
from repro.registry.core import Registry


class TestRegistration:
    def test_decorator_defaults_from_function(self):
        reg = Registry("thing")

        @reg.register
        def frobnicate():
            """Frobnicates the input.

            Longer text that must not leak into the description.
            """

        entry = reg.get("frobnicate")
        assert entry.name == "frobnicate"
        assert entry.description == "Frobnicates the input."
        assert reg.resolve("frobnicate") is frobnicate

    def test_decorator_returns_factory_unchanged(self):
        reg = Registry("thing")

        @reg.register("named")
        def fn():
            return 42

        assert fn() == 42  # still a plain callable
        assert reg.create("named") == 42

    def test_duplicate_name_rejected(self):
        reg = Registry("thing")
        reg.register("x", lambda: 1)
        with pytest.raises(DuplicateRegistrationError):
            reg.register("x", lambda: 2)

    def test_alias_collision_rejected(self):
        reg = Registry("thing")
        reg.register("x", lambda: 1, aliases=("ex",))
        with pytest.raises(DuplicateRegistrationError):
            reg.register("ex", lambda: 2)
        with pytest.raises(DuplicateRegistrationError):
            reg.register("y", lambda: 3, aliases=("x",))

    def test_alias_resolution(self):
        reg = Registry("thing")
        reg.register("x", lambda: 1, aliases=("ex", "ecks"))
        assert reg.get("ex") is reg.get("x")
        assert reg.create("ecks") == 1
        assert "ex" in reg
        # Aliases resolve but do not appear in the listing.
        assert reg.names() == ("x",)

    def test_lazy_target_resolution(self):
        reg = Registry("thing")
        reg.register_lazy("plus", "operator:add")
        assert reg.create("plus", 2, 3) == 5

    def test_lazy_target_malformed(self):
        reg = Registry("thing")
        reg.register_lazy("bad", "operator.add")  # no colon
        with pytest.raises(RegistryError):
            reg.resolve("bad")

    def test_lazy_target_non_callable(self):
        reg = Registry("thing")
        reg.register_lazy("bad", "math:pi")
        with pytest.raises(RegistryError):
            reg.resolve("bad")


class TestLookupFailure:
    def test_unknown_name_lists_known(self):
        reg = Registry("thing")
        reg.register("x", lambda: 1)
        with pytest.raises(UnknownNameError, match="known: x"):
            reg.get("y")

    def test_unknown_name_is_keyerror_and_valueerror(self):
        """The uniform lookup error replaces the seed's per-table
        KeyError / ValueError without breaking existing handlers."""
        reg = Registry("thing")
        with pytest.raises(KeyError):
            reg.get("nope")
        with pytest.raises(ValueError):
            reg.get("nope")

    def test_unknown_name_str_is_not_quoted(self):
        # KeyError.__str__ would repr() the message; ours must not.
        err = UnknownNameError("unknown thing 'y'")
        assert str(err) == "unknown thing 'y'"


class TestDeterministicListing:
    def test_order_then_name(self):
        reg = Registry("thing")
        reg.register("zebra", lambda: 1, order=0)
        reg.register("apple", lambda: 1, order=5)
        reg.register("mango", lambda: 1, order=5)
        reg.register("omega", lambda: 1)  # default order=1000
        assert reg.names() == ("zebra", "apple", "mango", "omega")

    def test_tag_filter(self):
        reg = Registry("thing")
        reg.register("a", lambda: 1, tags=("even",), order=0)
        reg.register("b", lambda: 1, tags=("odd",), order=1)
        reg.register("c", lambda: 1, tags=("even",), order=2)
        assert reg.names(tag="even") == ("a", "c")
        assert [e.name for e in reg.entries(tag="odd")] == ["b"]


def _stub_distribution(tmp_path, group, name, target, dist="stub-pkg"):
    info = tmp_path / f"{dist.replace('-', '_')}-1.0.dist-info"
    info.mkdir()
    (info / "METADATA").write_text(
        f"Metadata-Version: 2.1\nName: {dist}\nVersion: 1.0\n"
    )
    (info / "entry_points.txt").write_text(f"[{group}]\n{name} = {target}\n")
    return tmp_path


class TestEntryPointDiscovery:
    def test_stub_distribution_discovered(self, tmp_path):
        _stub_distribution(tmp_path, "test.things", "plus", "operator:add")
        reg = Registry("thing", entry_point_group="test.things")
        reg.discover(force=True, path=[str(tmp_path)])
        assert "plus" in reg.names()
        entry = reg.get("plus")
        assert entry.source == "plugin:stub-pkg"
        assert reg.create("plus", 20, 22) == 42

    def test_plugin_cannot_shadow_builtin(self, tmp_path):
        _stub_distribution(tmp_path, "test.things", "x", "operator:add")
        reg = Registry("thing", entry_point_group="test.things")
        reg.register("x", lambda: "builtin")
        with pytest.warns(RuntimeWarning, match="shadows"):
            reg.discover(force=True, path=[str(tmp_path)])
        assert reg.create("x") == "builtin"

    def test_discovery_idempotent(self, tmp_path):
        _stub_distribution(tmp_path, "test.things", "plus", "operator:add")
        reg = Registry("thing", entry_point_group="test.things")
        reg.discover(force=True, path=[str(tmp_path)])
        reg.discover(force=True, path=[str(tmp_path)])  # same plugin again
        assert reg.names().count("plus") == 1


class TestConcurrentDiscovery:
    def test_first_lookups_from_many_threads_wait_for_discovery(
        self, tmp_path, monkeypatch
    ):
        """A lookup racing the first one waits for its discovery to
        finish instead of reading a half-filled registry (a fresh
        server taking several submissions at once)."""
        import sys
        import threading
        import types

        reg = Registry("thing", builtin_modules=("slow_things",))
        monkeypatch.setitem(
            sys.modules, "slow_things_home", types.SimpleNamespace(reg=reg)
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        (tmp_path / "slow_things.py").write_text(
            "import time\n"
            "from slow_things_home import reg\n"
            "time.sleep(0.2)\n"
            "reg.register('late', int)\n"
        )
        monkeypatch.delitem(sys.modules, "slow_things", raising=False)
        found: list[bool] = []
        threads = [
            threading.Thread(target=lambda: found.append("late" in reg))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert found == [True] * 4


class TestBuiltinRegistries:
    def test_workload_listing(self):
        names = WORKLOADS.names()
        # Table 3 first (in Fig 11 order), then the zoo.
        assert names[:10] == (
            "stencil1d", "stencil2d", "stencil3d", "dwt2d", "gauss_elim",
            "conv2d", "conv3d", "mm", "kmeans", "gather_mlp",
        )
        for zoo in ("attention", "mlp", "spmv", "sddmm"):
            assert zoo in names

    def test_mm_alias(self):
        assert WORKLOADS.get("matmul") is WORKLOADS.get("mm")

    def test_paradigm_listing_matches_fig11(self):
        names = PARADIGMS.names()
        assert names == ("base", "base-1", "near-l3", "in-l3", "inf-s",
                         "inf-s-nojit")
        assert PARADIGMS.names(tag="fig11") == FIG11_PARADIGMS

    def test_system_listing(self):
        assert SYSTEMS.names() == ("default", "small-test", "sram-512")
        assert SYSTEMS.get("small_test") is SYSTEMS.get("small-test")

    def test_figures_include_zoo(self):
        names = FIGURES.names()
        assert "fig11" in names and "zoo" in names

    def test_registry_map_categories(self):
        assert set(REGISTRIES) == {
            "workloads", "paradigms", "systems", "figures"
        }

    def test_unknown_workload_uniform_error(self):
        with pytest.raises(UnknownNameError):
            WORKLOADS.get("bitcoin_miner")
