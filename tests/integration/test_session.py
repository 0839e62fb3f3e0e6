"""Session-level behaviour: creation options, reuse semantics, invalidation."""

import os

import pytest

from repro.session import Session
from repro.spec.spec import Spec


class TestCreation:
    def test_custom_toolchains(self, tmp_path):
        session = Session.create(
            str(tmp_path / "u"), toolchains=[("gcc", "5.2.0"), ("clang", "3.6.1")]
        )
        names = {(c.name, str(c.version)) for c in session.compilers}
        assert names == {("gcc", "5.2.0"), ("clang", "3.6.1")}

    def test_empty_repo_session(self, tmp_path):
        session = Session.create(str(tmp_path / "u"), packages=None)
        assert session.repo.all_package_names() == []

    def test_config_overrides_win(self, tmp_path):
        session = Session.create(
            str(tmp_path / "u"),
            config_overrides={"preferences": {"architecture": "bgq"}},
        )
        assert session.concretize(Spec("libelf")).architecture == "bgq"

    def test_web_seeded_for_all_packages(self, tmp_path):
        session = Session.create(str(tmp_path / "u"))
        cls = session.repo.get_class("libelf")
        pkg = cls(Spec("libelf@0.8.13"), session=session)
        assert session.web.exists(pkg.url_for_version("0.8.13"))

    def test_stage_and_store_layout(self, tmp_path):
        session = Session.create(str(tmp_path / "u"))
        assert os.path.isdir(session.stage_root)
        assert session.store.root == os.path.abspath(str(tmp_path / "u"))


class TestInstallSemantics:
    def test_reuse_existing_satisfying_install(self, session):
        """§3.2.3: 'the user can save time if Spack already has a version
        installed that satisfies the spec'."""
        first, _ = session.install("mpileaks@2.3")
        again, result = session.install("mpileaks@2:")  # satisfied by 2.3
        assert again.dag_hash() == first.dag_hash()
        assert result.built == []

    def test_reuse_can_be_disabled(self, session):
        session.install("mpileaks@2.3")
        spec, _ = session.install("mpileaks@2:", reuse_existing=False)
        # same concretization -> same hash -> still no rebuild, but the
        # path went through concretize rather than the database
        assert str(spec.version) == "2.3"

    def test_nonmatching_install_builds_fresh(self, session):
        session.install("mpileaks@2.3")
        spec, result = session.install("mpileaks@1.0")
        assert str(spec.version) == "1.0"
        assert "mpileaks" in [s.spec.name for s in result.built]

    def test_explicit_marking(self, session):
        spec, _ = session.install("mpileaks")
        explicit = {r.name for r in session.find(explicit=True)}
        implicit = {r.name for r in session.find(explicit=False)}
        assert "mpileaks" in explicit
        assert "libelf" in implicit

    def test_find_with_queries(self, installed_mpileaks):
        session, _, _ = installed_mpileaks
        assert len(session.find()) == 6
        assert len(session.find("mpileaks")) == 1
        assert session.find("mpileaks %intel") == []


class TestRepoManagement:
    def test_add_repo_invalidates_provider_index(self, session):
        from repro.directives import provides, version
        from repro.package.package import Package
        from repro.repo.repository import Repository

        assert not session.provider_index.is_virtual("newapi")
        extra = Repository(namespace="extra")

        @extra.register("newlib")
        class Newlib(Package):
            version("1.0", "x")
            provides("newapi")

        session.add_repo(extra)
        assert session.provider_index.is_virtual("newapi")

    def test_registration_reaches_the_provider_index(self, session):
        """Regression: the provider index was rebuilt only by add_repo,
        so a package providing a new virtual, registered into the
        session's existing repo, was unknown to the session's
        concretizer (UnknownPackageError on the virtual) while a
        freshly forked State concretized the same request."""
        from repro.directives import depends_on, provides, version
        from repro.package.package import Package
        from repro.service.snapshot import StateSnapshot

        session.concretize("libelf", use_cache=False)  # index built
        repo = session.repo.repos[0]

        @repo.register("newlib")
        class Newlib(Package):
            version("1.0", "x")
            provides("newapi")

        @repo.register("newapp")
        class Newapp(Package):
            version("1.0", "x")
            depends_on("newapi")

        assert session.provider_index.is_virtual("newapi")
        cold = session.concretize("newapp", use_cache=False)
        assert cold["newapi"].name == "newlib"
        fresh = StateSnapshot(session).concretize("newapp", use_cache=False)
        assert cold.dag_hash() == fresh.dag_hash()
        # with caches on, the answer no longer depends on who stored first
        assert session.concretize("newapp").dag_hash() == cold.dag_hash()

    def test_package_for(self, session):
        concrete = session.concretize(Spec("libelf"))
        pkg = session.package_for(concrete)
        assert pkg.name == "libelf"
        assert pkg.session is session
        assert pkg.prefix == session.store.layout.path_for_spec(concrete)


class TestExternals:
    def test_register_external_creates_content(self, session):
        prefix = session.register_external("openmpi@1.8.2")
        assert os.path.isfile(os.path.join(prefix, "include", "openmpi.h"))
        assert os.path.isfile(os.path.join(prefix, "lib", "libopenmpi.so.json"))

    def test_register_external_custom_prefix(self, session, tmp_path):
        prefix = session.register_external(
            "mkl@11.2", prefix=str(tmp_path / "intel" / "mkl")
        )
        assert prefix == str(tmp_path / "intel" / "mkl")
        concrete = session.concretize(Spec("py-numpy ^mkl"))
        assert concrete["mkl"].external == prefix

    def test_external_without_content(self, session, tmp_path):
        prefix = session.register_external(
            "openmpi@1.8.2", prefix=str(tmp_path / "bare"), create_content=False
        )
        assert not os.path.exists(prefix)


class TestModuleGeneration:
    def test_modules_auto_generated(self, session):
        spec, _ = session.install("libelf")
        module_dir = os.path.join(session.root, "modules")
        files = []
        for dirpath, _d, names in os.walk(module_dir):
            files.extend(names)
        assert any("libelf" in f for f in files)

    def test_generation_can_be_disabled(self, tmp_path):
        session = Session.create(str(tmp_path / "u"), generate_modules=False)
        session.install("libelf")
        assert not os.path.isdir(os.path.join(session.root, "modules"))
