"""Build hooks: the optional compiled batch-step kernel.

``pip install -e .`` compiles ``repro.faults._cstep._cstep`` from the
single C translation unit below; the extension is *optional* — any
build failure (no compiler, broken headers) is swallowed and the
install completes without it, in which case the campaign drivers run
the scalar injection engine (same records, scalar speed; see
repro/faults/kernels.py).  The dev flow without an install
(``PYTHONPATH=src``) doesn't need this file at all: the ``_cstep``
package auto-builds into a user cache with the system cc on first use.
"""
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that degrades to a warning instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler / missing headers
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"WARNING: building the optional _cstep extension failed "
              f"({exc}); campaigns will run the scalar injection engine "
              "instead.")


setup(
    ext_modules=[
        Extension(
            "repro.faults._cstep._cstep",
            sources=["src/repro/faults/_cstep/_cstepmodule.c"],
            optional=True,
        ),
    ],
    cmdclass={"build_ext": optional_build_ext},
)
