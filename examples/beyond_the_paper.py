#!/usr/bin/env python3
"""The paper's §4.5 future work, implemented and demonstrated.

Four features the SC '15 paper planned but did not ship:

1. **Search past greedy dead ends** — the hwloc conflict the greedy
   algorithm documents as a limitation, solved by the optimizing
   solver (``concretizer="solver"``);
2. **Compiler-feature dependencies** — ``requires_compiler('cxx@14:')``
   steering compiler selection and rejecting incapable pins;
3. **Architecture descriptions** — per-platform configure args and
   compiler flags factored out of package files;
4. **Lmod hierarchies** — Core/compiler/MPI module trees generated from
   dependency information.

Run:  python examples/beyond_the_paper.py [workdir]
"""

import os
import sys
import tempfile

from repro import Session, Spec
from repro.core.concretizer import ConcretizationError
from repro.directives import depends_on, provides, requires_compiler, version
from repro.package.package import Package


def main():
    workdir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-next-")
    session = Session.create(workdir)
    repo = session.repo.repos[0]

    # -- 1. the solver -----------------------------------------------------
    print("== 1. solver concretization (the §4.5 hwloc case)")

    @repo.register("hwloc")
    class Hwloc(Package):
        version("1.8", "x")
        version("1.9", "y")

    @repo.register("fastmpi")
    class FastMpi(Package):
        version("1.0", "x")
        provides("netapi")
        depends_on("hwloc@1.8")     # pinned old hwloc

    @repo.register("safempi")
    class SafeMpi(Package):
        version("1.0", "x")
        provides("netapi")
        depends_on("hwloc@1.9")

    @repo.register("simulator")
    class Simulator(Package):
        version("1.0", "x")
        depends_on("hwloc@1.9")
        depends_on("netapi")

    session.config.update(
        "user", {"preferences": {"providers": {"netapi": ["fastmpi", "safempi"]}}}
    )
    try:
        session.concretize(Spec("simulator"))
        print("   greedy unexpectedly succeeded?!")
    except ConcretizationError as e:
        print("   greedy fails (as §4.5 documents): %s" % e.message[:70])
    solver = session.snapshots.current().concretizer("solver")
    solved = solver.concretize(Spec("simulator"))
    print("   the solver solves it with %s in %d passes\n"
          % (solved["netapi"].name, solver.last_attempts))

    # -- 2. compiler features -------------------------------------------------
    print("== 2. compiler-feature dependencies")
    from repro.fetch.mockweb import mock_checksum

    @repo.register("modern-code")
    class ModernCode(Package):
        url = "https://mock.example.org/modern-code/modern-code-1.0.tar.gz"
        version("1.0", mock_checksum("modern-code", "1.0"))
        requires_compiler("cxx@14:")
        requires_compiler("openmp@4:")

    session.seed_web()
    concrete = session.concretize(Spec("modern-code"))
    print("   requires cxx>=14 and OpenMP>=4 -> chose %s" % concrete.compiler)
    try:
        session.concretize(Spec("modern-code%clang"))   # clang 3.5: no OpenMP
    except Exception as e:
        print("   %%clang correctly rejected: %s\n" % str(e).splitlines()[0][:70])

    # -- 3. architecture descriptions ---------------------------------------------
    print("== 3. architecture descriptions")
    bgq = session.platforms.get("bgq")
    print("   bgq platform: configure %s, xl flags %s"
          % (bgq.configure_args, bgq.flags_for("xl")))
    spec, _ = session.install("libelf =bgq %xl", keep_stage=True)
    import glob
    import json

    # stage dirs are tagged with the spec's dag hash (parallel-build safe)
    (stage,) = glob.glob(
        os.path.join(session.stage_root, "libelf-0.8.13-*stage", "libelf-0.8.13")
    )
    obj = json.load(open(os.path.join(stage, "objs", "unit_000.o.json")))
    print("   object file built with flags: %s (no package changes)\n" % obj["flags"])

    # -- 4. lmod hierarchy -------------------------------------------------------------
    print("== 4. Lmod hierarchy")
    session.install("mpileaks ^mvapich2")
    session.install("mpileaks ^openmpi")
    from repro.modules.lmod import LmodHierarchy

    hierarchy = LmodHierarchy(session)
    hierarchy.refresh()
    for rel in hierarchy.tree():
        if "mpileaks" in rel or "Core" in rel:
            print("   %s" % rel)
    print("\nOK — all four §4.5 extensions working.")


if __name__ == "__main__":
    main()
