"""Parser tests against the Figure 3 grammar, including Table 2's rows."""

import pytest

from repro.spec import SpecParseError, parse_specs
from repro.spec.errors import (
    DuplicateArchitectureError,
    DuplicateCompilerSpecError,
    DuplicateDependencyError,
    DuplicateVariantError,
)
from repro.spec.spec import Spec


class TestBasicParsing:
    def test_package_name_only(self):
        s = Spec("mpileaks")
        assert s.name == "mpileaks"
        assert s.versions.universal
        assert s.compiler is None
        assert not s.variants
        assert s.architecture is None
        assert not s.dependencies

    def test_names_with_special_chars(self):
        assert Spec("py-numpy").name == "py-numpy"
        assert Spec("sgeos_xml").name == "sgeos_xml"
        assert Spec("bzip2").name == "bzip2"

    def test_version(self):
        assert str(Spec("mpileaks@1.1.2").versions) == "1.1.2"

    def test_version_ranges(self):
        assert str(Spec("mpileaks@2.3:").versions) == "2.3:"
        assert str(Spec("mpileaks@:2.5").versions) == ":2.5"
        assert str(Spec("mpileaks@2.3:2.5.6").versions) == "2.3:2.5.6"

    def test_version_union(self):
        s = Spec("mpileaks@1.2:1.4,1.6")
        assert s.versions.contains_version("1.6.1")
        assert not s.versions.contains_version("1.5")

    def test_compiler(self):
        s = Spec("mpileaks %gcc")
        assert s.compiler.name == "gcc"
        assert s.compiler.versions.universal

    def test_compiler_with_version(self):
        s = Spec("mpileaks %intel@14.1")
        assert s.compiler.name == "intel"
        assert str(s.compiler.versions) == "14.1"

    def test_compiler_version_range(self):
        assert str(Spec("%gcc@4.7:4.9").compiler.versions) == "4.7:4.9"

    def test_variants(self):
        s = Spec("mpileaks +debug ~shared -static")
        assert s.variants == {"debug": True, "shared": False, "static": False}

    def test_dash_inside_name_is_not_variant(self):
        s = Spec("mpileaks-debug")
        assert s.name == "mpileaks-debug"
        assert not s.variants

    def test_architecture(self):
        assert Spec("mpileaks =bgq").architecture == "bgq"
        assert Spec("mpileaks =linux-ppc64").architecture == "linux-ppc64"

    def test_whitespace_insensitive(self):
        a = Spec("mpileaks@1.2%gcc@4.5+debug=bgq")
        b = Spec("mpileaks @1.2 %gcc@4.5 +debug =bgq")
        assert a == b


class TestDependencies:
    def test_single_dep(self):
        s = Spec("mpileaks ^mvapich2@1.9")
        assert set(s.dependencies) == {"mvapich2"}
        assert str(s.dependencies["mvapich2"].versions) == "1.9"

    def test_deps_attach_to_root_in_any_order(self):
        a = Spec("mpileaks ^callpath@1.1 ^openmpi@1.4.7")
        b = Spec("mpileaks ^openmpi@1.4.7 ^callpath@1.1")
        assert a == b

    def test_dep_constraints(self):
        s = Spec("mpileaks ^callpath@1.1%gcc@4.7.2+debug=bgq")
        dep = s.dependencies["callpath"]
        assert str(dep.versions) == "1.1"
        assert dep.compiler.name == "gcc"
        assert dep.variants["debug"] is True
        assert dep.architecture == "bgq"

    def test_table2_row7(self):
        s = Spec(
            "mpileaks @1.2:1.4 %gcc@4.7.5 ~debug =bgq "
            "^callpath @1.1 %gcc@4.7.2 ^openmpi @1.4.7"
        )
        assert str(s.versions) == "1.2:1.4"
        assert str(s.compiler) == "gcc@4.7.5"
        assert s.variants["debug"] is False
        assert s.architecture == "bgq"
        assert str(s.dependencies["callpath"].compiler) == "gcc@4.7.2"
        assert str(s.dependencies["openmpi"].versions) == "1.4.7"

    def test_duplicate_dependency_rejected(self):
        with pytest.raises((DuplicateDependencyError, SpecParseError)):
            Spec("mpileaks ^mpich ^mpich@3")


class TestAnonymousSpecs:
    @pytest.mark.parametrize(
        "text",
        ["@2.4", "%gcc@5:", "+mpi", "~debug", "=bgq", "=bgq%xl", "@2.4 %xlc"],
    )
    def test_anonymous_ok(self, text):
        s = Spec(text)
        assert s.anonymous

    def test_empty_rejected(self):
        with pytest.raises(SpecParseError):
            Spec("")

    def test_caret_without_root_rejected(self):
        with pytest.raises(SpecParseError):
            Spec("^mpich")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["mpileaks@", "mpileaks%", "mpileaks+", "mpileaks=", "mpileaks^",
         "mpileaks@1.2 []", "mpileaks@@1.2"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(SpecParseError):
            parse_specs(text)

    def test_two_versions_rejected(self):
        with pytest.raises(SpecParseError):
            Spec("mpileaks@1.2 @1.4")

    def test_two_compilers_rejected(self):
        with pytest.raises(DuplicateCompilerSpecError):
            Spec("mpileaks %gcc %intel")

    def test_two_architectures_rejected(self):
        with pytest.raises(DuplicateArchitectureError):
            Spec("mpileaks =bgq =linux-x86_64")

    def test_duplicate_variant_rejected(self):
        with pytest.raises(DuplicateVariantError):
            Spec("mpileaks +debug ~debug")

    def test_error_carries_position(self):
        with pytest.raises(SpecParseError) as excinfo:
            parse_specs("mpileaks []")
        assert excinfo.value.long_message is not None


class TestMultipleSpecs:
    def test_parse_list(self):
        specs = parse_specs("mpileaks callpath@1.2 libelf%gcc")
        assert [s.name for s in specs] == ["mpileaks", "callpath", "libelf"]

    def test_spec_constructor_requires_one(self):
        with pytest.raises(SpecParseError):
            Spec("mpileaks callpath")


class TestSpecFromText:
    """``Spec(text)`` parses straight into the new object: one parse, no
    copy of a temporary."""

    TEXT = "mpileaks@1.2:1.4%gcc@4.7.5~debug=bgq ^callpath@1.1 ^openmpi@1.4.7"

    def test_one_parse_and_no_copy(self, monkeypatch):
        from repro.spec import parser

        calls = {"parse": 0, "dup": 0}
        real_parse, real_dup = parser.parse_specs, Spec._dup

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return real_parse(*args, **kwargs)

        def counting_dup(self, *args, **kwargs):
            calls["dup"] += 1
            return real_dup(self, *args, **kwargs)

        monkeypatch.setattr(parser, "parse_specs", counting_parse)
        monkeypatch.setattr(Spec, "_dup", counting_dup)
        spec = Spec(self.TEXT)
        assert calls == {"parse": 1, "dup": 0}
        assert spec == parse_specs(self.TEXT)[0]
        assert str(spec) == str(parse_specs(self.TEXT)[0])
        assert sorted(spec.dependencies) == ["callpath", "openmpi"]

    @pytest.mark.parametrize("text", ["", "   ", "mpileaks libelf"])
    def test_not_exactly_one_spec_raises(self, text):
        with pytest.raises(SpecParseError, match="exactly one spec"):
            Spec(text)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "mpileaks",
            "mpileaks@1.2",
            "mpileaks@1.2:1.4,1.6",
            "mpileaks@1.1.2%gcc@4.7+debug~shared",
            "mpileaks@1.0=bgq ^callpath@1.1",
            "mpileaks@1.2:1.4%gcc@4.7.5~debug=bgq ^callpath@1.1%gcc@4.7.2 ^openmpi@1.4.7",
            "%gcc@5:",
            "@2.4",
        ],
    )
    def test_round_trip(self, text):
        first = Spec(text)
        again = Spec(str(first)) if first.name else first
        assert again == first
