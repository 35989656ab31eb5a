"""Seeded constrained-random SR5 program generator.

Programs are built from weighted *blocks*, each a template that
deliberately stresses one pipeline mechanism:

* ``alu``     — back-to-back RAW chains over a small register window
  (forwarding / bypass network);
* ``mul``     — MUL/MULH with immediately-dependent consumers
  (two-cycle stall adjacency);
* ``mem``     — aliasing and non-aliasing LD/LDB/ST/STB bursts
  (store-buffer fill, drain-before-load);
* ``loop``    — counted loops with an alternating taken/not-taken
  inner branch (BTB learn/mispredict storms);
* ``fwd``     — data-dependent forward branches;
* ``call``    — JAL/JALR subroutine call and return (BTB on indirect
  targets);
* ``io``      — IN/OUT bursts against the replicated stimulus stream;
* ``csr``     — scratch/flags/counter CSR traffic;
* ``bkpt`` / ``watch`` / ``irq`` / ``mpu`` — arm a debug breakpoint,
  data watchpoint, software interrupt or MPU region so the exception
  path (precise trap, handler, resume) is exercised.

Termination is guaranteed by construction: every backward branch is a
counted loop over the reserved counter registers, every trap source is
cleared by the shared handler before resuming, and generated code
never stores into the code region (all data traffic goes through the
reserved ``r14`` base pointer into a disjoint data segment), so the
core cannot wander into self-modifying code — whose behaviour is
*micro*architectural (fetch-ahead) and therefore out of the reference
model's contract.

Register convention (the generator's constraint set):

====  =======================================================
r1-r10  free pool: random blocks read anywhere, write only here
r11     inner loop counter (written only by loop headers)
r12     inner loop limit   (written only by loop headers)
r13     trap-handler scratch
r14     data-segment base pointer (set once in init)
r15     link register for call blocks
====  =======================================================

Each emitted :class:`Line` is an atomic chunk of assembly marked
``removable`` when deleting it cannot break assembly or termination —
the exact structure the delta-debugging shrinker
(:func:`repro.verify.diff.shrink`) operates on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Byte address where the data segment starts (code must stay below).
DATA_BASE = 4096
#: Size of the data segment in bytes (word-aligned offsets 0..1020).
DATA_SIZE = 1024
#: Memory size (words) used for fuzzing: 16 KiB covers code + data.
FUZZ_MEM_WORDS = 4096

#: Free register pool the random blocks may write.
_POOL = tuple(range(1, 11))

#: Shared exception prologue: the handler reports the cause on port 7,
#: disarms every trap source it could have come from, clears the
#: in-exception status bit and resumes at the faulting pc.
PROLOGUE_LINES = (
    "_start:",
    "    jal  r0, main",
    ".org 0x8",
    "handler:",
    "    csrr r13, 4        ; cause",
    "    out  r13, 7",
    "    csrw r0, 11        ; dbg_ctrl  <- 0 (disarm bkpt/watch)",
    "    csrw r0, 13        ; irq_pending <- 0",
    "    csrw r0, 22        ; mpu_ctrl  <- 0",
    "    csrw r0, 1         ; status    <- 0 (leave exception state)",
    "    csrr r13, 5        ; epc",
    "    jalr r0, r13, 0    ; resume at the faulting instruction",
    "main:",
)

#: Trap-free prologue variant the shrinker may substitute when the
#: minimal repro no longer needs the resume path (a trap then simply
#: halts, which both simulators model identically).
STUB_PROLOGUE_LINES = (
    "_start:",
    "    jal  r0, main",
    ".org 0x8",
    "handler:",
    "    halt",
    "main:",
)


@dataclass
class Line:
    """One atomic chunk of assembly (possibly several physical lines)."""

    text: str
    removable: bool = True


@dataclass
class Block:
    """A generated template instance; ``kind`` names the template."""

    kind: str
    lines: list[Line] = field(default_factory=list)


@dataclass
class FuzzProgram:
    """A generated program plus its replicated input stimulus."""

    seed: object
    blocks: list[Block]
    stimulus: list[int]
    #: True once the shrinker swapped in the stub prologue.
    stub_handler: bool = False

    def source(self, excluded: frozenset[tuple[int, int]] = frozenset()) -> str:
        """Render assembly, skipping ``(block_idx, line_idx)`` pairs."""
        parts: list[str] = []
        for bi, block in enumerate(self.blocks):
            if block.kind == "prologue" and self.stub_handler:
                parts.extend(STUB_PROLOGUE_LINES)
                continue
            for li, line in enumerate(block.lines):
                if (bi, li) not in excluded:
                    parts.append(line.text)
        return "\n".join(parts) + "\n"

    def instruction_count(self) -> int:
        """Instructions in the rendered source (directives/labels excluded)."""
        count = 0
        for raw in self.source().splitlines():
            stripped = raw.split(";")[0].strip()
            while ":" in stripped:
                stripped = stripped.partition(":")[2].strip()
            if stripped and not stripped.startswith("."):
                count += 1
        return count

    def removable_keys(self) -> list[tuple[int, int]]:
        """All ``(block_idx, line_idx)`` pairs the shrinker may drop."""
        return [(bi, li)
                for bi, block in enumerate(self.blocks)
                for li, line in enumerate(block.lines) if line.removable]


class _Gen:
    """One generation session over a seeded ``random.Random``."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.label = 0

    def fresh(self, stem: str) -> str:
        self.label += 1
        return f"{stem}_{self.label}"

    def reg(self) -> int:
        return self.rng.choice(_POOL)

    def src(self) -> int:
        """A source register: the pool plus the hardwired zero."""
        return self.rng.choice((0,) + _POOL)

    def data_off(self, align: int = 4) -> int:
        """A random in-segment byte offset with the given alignment."""
        return self.rng.randrange(0, DATA_SIZE, align)

    # -- leaf instruction makers -----------------------------------------

    def alu_line(self, window: list[int] | None = None) -> str:
        """One random ALU instruction; ``window`` biases RAW chains."""
        rng = self.rng
        rd = rng.choice(window) if window and rng.random() < 0.7 else self.reg()
        ra = rng.choice(window) if window and rng.random() < 0.7 else self.src()
        if rng.random() < 0.55:
            op = rng.choice(("add", "sub", "and", "or", "xor", "shl", "shr",
                             "sra", "slt", "sltu"))
            return f"    {op:4s} r{rd}, r{ra}, r{self.src()}"
        op = rng.choice(("addi", "andi", "ori", "xori", "slti",
                         "shli", "shri", "srai"))
        if op in ("shli", "shri", "srai"):
            imm = rng.randrange(0, 32)
        else:
            imm = rng.randrange(-8192, 8192)
        return f"    {op:4s} r{rd}, r{ra}, {imm}"

    def body_line(self) -> str:
        """A loop/branch body instruction (ALU, memory or I/O)."""
        roll = self.rng.random()
        if roll < 0.6:
            return self.alu_line()
        if roll < 0.75:
            return f"    ld   r{self.reg()}, {self.data_off()}(r14)"
        if roll < 0.9:
            return f"    st   r{self.src()}, {self.data_off()}(r14)"
        if roll < 0.95:
            return f"    in   r{self.reg()}, 0"
        return f"    out  r{self.src()}, {self.rng.randrange(8)}"

    # -- block templates -------------------------------------------------

    def block_alu(self) -> Block:
        window = self.rng.sample(_POOL, k=self.rng.randrange(2, 4))
        lines = [Line(self.alu_line(window))
                 for _ in range(self.rng.randrange(3, 9))]
        return Block("alu", lines)

    def block_mul(self) -> Block:
        rng = self.rng
        lines = []
        for _ in range(rng.randrange(1, 4)):
            rd = self.reg()
            op = rng.choice(("mul", "mulh"))
            lines.append(Line(f"    {op:4s} r{rd}, r{self.src()}, r{self.src()}"))
            # Immediate consumer: forwarding right after the stall.
            lines.append(Line(f"    add  r{self.reg()}, r{rd}, r{self.src()}"))
        return Block("mul", lines)

    def block_mem(self) -> Block:
        rng = self.rng
        lines = []
        base_off = self.data_off()
        for _ in range(rng.randrange(3, 8)):
            roll = rng.random()
            # Half the traffic aliases one hot word: store->load drain,
            # store->store overwrite, byte/word mixing on one address.
            off = base_off if roll < 0.5 else self.data_off()
            kind = rng.random()
            if kind < 0.35:
                lines.append(Line(f"    st   r{self.src()}, {off}(r14)"))
            elif kind < 0.5:
                lines.append(Line(f"    stb  r{self.src()}, {off + rng.randrange(4)}(r14)"))
            elif kind < 0.85:
                lines.append(Line(f"    ld   r{self.reg()}, {off}(r14)"))
            else:
                lines.append(Line(f"    ldb  r{self.reg()}, {off + rng.randrange(4)}(r14)"))
        return Block("mem", lines)

    def block_loop(self) -> Block:
        rng = self.rng
        loop = self.fresh("loop")
        skip = self.fresh("skip")
        iters = rng.randrange(3, 11)
        toggler = self.reg()
        lines = [
            Line("    addi r11, r0, 0", removable=False),
            Line(f"    addi r12, r0, {iters}", removable=False),
            Line(f"{loop}:", removable=False),
        ]
        lines += [Line(self.body_line()) for _ in range(rng.randrange(1, 5))]
        lines += [
            Line(f"    andi r{toggler}, r11, 1", removable=False),
            Line(f"    beq  r{toggler}, r0, {skip}", removable=False),
        ]
        lines += [Line(self.body_line()) for _ in range(rng.randrange(1, 3))]
        lines += [
            Line(f"{skip}:", removable=False),
            Line("    addi r11, r11, 1", removable=False),
            Line(f"    bne  r11, r12, {loop}", removable=False),
        ]
        return Block("loop", lines)

    def block_fwd(self) -> Block:
        rng = self.rng
        label = self.fresh("fwd")
        cond = rng.choice(("beq", "bne", "blt", "bge", "bltu", "bgeu"))
        lines = [
            Line(f"    {cond:4s} r{self.src()}, r{self.src()}, {label}",
                 removable=False),
        ]
        lines += [Line(self.body_line()) for _ in range(rng.randrange(1, 4))]
        lines.append(Line(f"{label}:", removable=False))
        return Block("fwd", lines)

    def block_call(self) -> tuple[Block, Block]:
        sub = self.fresh("sub")
        call = Block("call", [Line(f"    jal  r15, {sub}", removable=False)])
        body = [Line(f"{sub}:", removable=False)]
        body += [Line(self.alu_line()) for _ in range(self.rng.randrange(1, 4))]
        body.append(Line("    jalr r0, r15, 0", removable=False))
        return call, Block("sub", body)

    def block_io(self) -> Block:
        lines = []
        for _ in range(self.rng.randrange(2, 6)):
            if self.rng.random() < 0.55:
                lines.append(Line(f"    in   r{self.reg()}, {self.rng.randrange(8)}"))
            else:
                lines.append(Line(f"    out  r{self.src()}, {self.rng.randrange(8)}"))
        return Block("io", lines)

    def block_csr(self) -> Block:
        rng = self.rng
        lines = []
        for _ in range(rng.randrange(2, 5)):
            roll = rng.random()
            if roll < 0.3:
                lines.append(Line(f"    csrw r{self.src()}, 2   ; scratch"))
            elif roll < 0.5:
                lines.append(Line(f"    csrr r{self.reg()}, 2   ; scratch"))
            elif roll < 0.65:
                lines.append(Line(f"    csrr r{self.reg()}, 3   ; flags"))
            elif roll < 0.8:
                reg = self.reg()
                lines.append(Line(f"    addi r{reg}, r0, 128\n"
                                  f"    csrw r{reg}, 1   ; enable perf counters"))
            else:
                csr = rng.choice((4, 5, 6, 7))   # cause/epc/cnt_branch/cnt_mem
                lines.append(Line(f"    csrr r{self.reg()}, {csr}"))
        return Block("csr", lines)

    def block_bkpt(self) -> Block:
        target = self.fresh("bkpt")
        reg = self.reg()
        slot = self.rng.choice((0, 1))          # bkpt0 or bkpt1
        arm = (f"    addi r{reg}, r0, {target}\n"
               f"    csrw r{reg}, {8 + slot}   ; dbg_bkpt{slot}\n"
               f"    addi r{reg}, r0, {1 + slot}\n"
               f"    csrw r{reg}, 11  ; arm breakpoint")
        # The trapped instruction reads a register operand and, like a
        # nop, changes no architectural state: flags (CSR 3) is
        # read-only, so the write is dropped.
        return Block("bkpt", [
            Line(arm),
            Line(self.alu_line()),
            Line(f"{target}:\n    csrw r{reg}, 3   ; read-only: no effect",
                 removable=False),
        ])

    def block_watch(self) -> Block:
        reg = self.reg()
        off = self.data_off()
        arm = (f"    addi r{reg}, r0, {DATA_BASE + off}\n"
               f"    csrw r{reg}, 10  ; dbg_watch0\n"
               f"    addi r{reg}, r0, 4\n"
               f"    csrw r{reg}, 11  ; arm watchpoint")
        hit = (f"    st   r{self.src()}, {off}(r14)"
               if self.rng.random() < 0.5 else
               f"    ld   r{self.reg()}, {off}(r14)")
        return Block("watch", [Line(arm), Line(hit)])

    def block_irq(self) -> Block:
        rng = self.rng
        reg = self.reg()
        mask = rng.randrange(1, 256)
        # Pending bits overlap the mask so the interrupt actually fires.
        pending = mask | rng.randrange(0, 256)
        arm = (f"    addi r{reg}, r0, {mask}\n"
               f"    csrw r{reg}, 12  ; irq_mask\n"
               f"    addi r{reg}, r0, {pending}\n"
               f"    csrw r{reg}, 13  ; irq_pending -> trap next boundary")
        return Block("irq", [Line(arm), Line("    nop")])

    def block_mpu(self) -> Block:
        reg = self.reg()
        lo = self.data_off()
        hi = min(lo + self.rng.randrange(4, 128, 4), DATA_SIZE)
        inside = lo + self.rng.randrange(0, max(hi - lo, 4), 4)
        arm = (f"    addi r{reg}, r0, {DATA_BASE + lo}\n"
               f"    csrw r{reg}, 14  ; mpu_base0\n"
               f"    addi r{reg}, r0, {DATA_BASE + hi}\n"
               f"    csrw r{reg}, 18  ; mpu_limit0\n"
               f"    addi r{reg}, r0, 3\n"
               f"    csrw r{reg}, 22  ; mpu_ctrl: trap region 0")
        return Block("mpu", [
            Line(arm),
            Line(f"    st   r{self.src()}, {inside}(r14)"),
        ])


#: Template weights: the hazard-heavy templates dominate; each trap
#: template still appears in a few percent of programs so every
#: exception coverage bin fills within a couple hundred programs.
_TEMPLATE_WEIGHTS = (
    ("alu", 24), ("mem", 16), ("loop", 14), ("mul", 10), ("fwd", 8),
    ("io", 7), ("csr", 6), ("call", 5),
    ("bkpt", 3), ("watch", 3), ("irq", 2), ("mpu", 2),
)


#: Pipeline-event bin -> templates engineered to hit it.  The mapping
#: drives :func:`adaptive_weights`: a bin the session under-hits boosts
#: exactly the templates that can fill it.
_BIN_TEMPLATES: dict[str, tuple[str, ...]] = {
    "flush": ("loop", "fwd"),
    "stall": ("mul",),
    "sb_drain": ("mem",),
    "btb_hit": ("loop", "call"),
    "btb_miss": ("loop", "fwd", "call"),
    "branch_taken": ("loop", "fwd"),
    "branch_not_taken": ("loop", "fwd"),
    "exc_IRQ": ("irq",),
    "exc_BKPT": ("bkpt",),
    "exc_WATCH": ("watch",),
    "exc_MPU": ("mpu",),
}


def adaptive_weights(bins: dict[str, int],
                     base: tuple[tuple[str, float], ...] = _TEMPLATE_WEIGHTS,
                     *, boost: float = 4.0) -> tuple[tuple[str, float], ...]:
    """Coverage-directed template reweighting.

    ``bins`` is :meth:`repro.verify.coverage.Coverage.event_bins` —
    counts per required pipeline-event bin.  Each template's weight is
    multiplied by ``1 + boost * rarity`` where *rarity* is the worst
    (largest) relative deficit across the bins it feeds: ``1 -
    count/median`` clamped to ``[0, 1]``.  A bin at or above the median
    contributes nothing; an empty bin pulls its templates up by the
    full ``1 + boost``.  Templates feeding no tracked bin keep their
    base weight.

    The result is always a valid sampling distribution: same template
    names in the same order, every weight finite and strictly positive
    (property-tested over adversarial bin counts).
    """
    counts = sorted(bins.get(name, 0) for name in _BIN_TEMPLATES)
    median = counts[len(counts) // 2] if counts else 0
    rarity: dict[str, float] = {}
    for bin_name, templates in _BIN_TEMPLATES.items():
        count = bins.get(bin_name, 0)
        deficit = 1.0 - count / median if median > 0 else (1.0 if not count else 0.0)
        deficit = min(max(deficit, 0.0), 1.0)
        for t in templates:
            rarity[t] = max(rarity.get(t, 0.0), deficit)
    return tuple((name, float(w) * (1.0 + boost * rarity.get(name, 0.0)))
                 for name, w in base)


def generate_program(seed: object, min_blocks: int = 4,
                     max_blocks: int = 10, *,
                     weights: tuple[tuple[str, float], ...] | None = None
                     ) -> FuzzProgram:
    """Generate one terminating random program for the given seed.

    ``weights`` overrides the static template distribution (same names,
    any positive weights) — the hook coverage-directed generation uses
    to steer later batches toward under-covered event bins.
    """
    rng = random.Random(str(seed))
    gen = _Gen(rng)

    prologue = Block("prologue", [Line(t, removable=False)
                                  for t in PROLOGUE_LINES])
    init_lines = [Line("    addi r14, r0, %d" % DATA_BASE, removable=False)]
    for reg in rng.sample(_POOL, k=rng.randrange(4, 9)):
        if rng.random() < 0.5:
            hi = rng.randrange(0, 1 << 16)
            init_lines.append(Line(f"    lui  r{reg}, {hi:#x}\n"
                                   f"    addi r{reg}, r{reg}, {rng.randrange(-8192, 8192)}"))
        else:
            init_lines.append(Line(f"    addi r{reg}, r0, {rng.randrange(-8192, 8192)}"))
    init = Block("init", init_lines)

    table = _TEMPLATE_WEIGHTS if weights is None else weights
    names = [name for name, _ in table]
    dist = [w for _, w in table]
    body: list[Block] = []
    subs: list[Block] = []
    for _ in range(rng.randrange(min_blocks, max_blocks + 1)):
        kind = rng.choices(names, weights=dist, k=1)[0]
        if kind == "call":
            call, sub = gen.block_call()
            body.append(call)
            subs.append(sub)
        else:
            body.append(getattr(gen, f"block_{kind}")())

    epilogue_lines = [Line(f"    out  r{reg}, 0")
                      for reg in rng.sample(_POOL, k=3)]
    epilogue_lines.append(Line("    halt", removable=False))
    epilogue = Block("epilogue", epilogue_lines)

    stimulus = [rng.randrange(0, 1 << 32) for _ in range(64)]
    blocks = [prologue, init, *body, epilogue, *subs]
    return FuzzProgram(seed=seed, blocks=blocks, stimulus=stimulus)


def program_strategy(min_blocks: int = 4, max_blocks: int = 8):
    """A Hypothesis strategy drawing random :class:`FuzzProgram` values.

    Lets property tests fuzz the pipeline directly::

        @given(program_strategy())
        def test_pipeline_matches_reference(prog):
            assert cosim(prog).ok

    Hypothesis shrinks over the integer seed; for a minimal *program*
    apply :func:`repro.verify.diff.shrink` to the failing value.
    """
    from hypothesis import strategies as st

    return st.integers(min_value=0, max_value=2**63 - 1).map(
        lambda s: generate_program(s, min_blocks=min_blocks,
                                   max_blocks=max_blocks))
