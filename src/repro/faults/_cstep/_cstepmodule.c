/* Compiled step kernel for the batch fault-injection engine.
 *
 * `inject()` runs triaged faults the way the scalar engine
 * (repro.faults.injector.InjectionEngine) does — seeding, stuck-at
 * force, golden port compare, masking and re-convergence checks,
 * fast-forward, retirement — each fault on one lane from its seed to
 * its retirement, and returns each fault's detect cycle, port tuple
 * and simulated span; repro/faults/batch.py builds the records.
 * `step()` advances lanes one cycle with no driver logic, so tests can
 * compare the C state transition against the specification.
 * `golden()` records a workload's fault-free run with the same step,
 * def/use masks and memory write log included, as
 * repro.faults.golden.GoldenTrace's Python build does.  `schedule()`
 * draws a shard's fault cycles exactly as numpy draws them in
 * repro.faults.campaign.schedule_faults, and `triage()` decides which
 * of them need simulating, and from when, exactly as
 * repro.faults.injector.triage_fault does (see their sections below).
 *
 * Semantics are a statement-by-statement mirror of `Cpu.step` in
 * repro/cpu/core.py; tests/test_kernels.py holds every lane equal to
 * a `Cpu` stepped from the same state, cycle by cycle, on workload
 * faults and on generated programs.  No numpy C API is used — all
 * arrays arrive through the buffer protocol, so the module builds
 * against any CPython 3.x with no third-party headers.
 *
 * Layout contract (enforced by itemsize/shape checks):
 *   S        uint32 (n_rows, B) C-contiguous, lane state columns
 *   M        uint32 (B, mem_words), per-lane memories
 *   sm       uint32 (n_cycles, n_regs), golden state rows per cycle
 *   pm       uint32 (n_cycles, 18), golden port rows per cycle
 *   stim     uint32 (stim_len,), replicated input stream
 *   tables   13-tuple, see TABLE_SPECS / repro.faults.kernels.cext_tables
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint32_t u32;

/* Row-index map: filled by memcpy from tables[0] (int64[68]).  Field
 * order here MUST match _ROW_ORDER in repro/faults/kernels.py. */
typedef struct {
    int64_t pc, btb_tag0, btb_tgt0, btb_v;
    int64_t imc_addr, imc_data, imc_valid, imc_pred, imc_ptgt;
    int64_t if_ir, if_pc, if_valid, if_pred, if_ptgt;
    int64_t mw_val, mw_pc, mw_rd, mw_wen, mw_valid, mw_isload;
    int64_t mul_a, mul_b, mul_pending;
    int64_t flags, sflags;
    int64_t br_target, br_taken, br_valid;
    int64_t ret_pc, ret_val, ret_rd, ret_valid;
    int64_t lsu_addr, lsu_wdata, lsu_op, lsu_valid;
    int64_t sb_addr, sb_data, sb_valid, sb_op;
    int64_t dmc_addr, dmc_wdata, dmc_rdata, dmc_ctrl, dmc_strb;
    int64_t mpu_base0, mpu_limit0, mpu_ctrl;
    int64_t bus_addr, bus_data, bus_ctrl;
    int64_t io_out, io_out_v, io_in, io_in_idx;
    int64_t status, cause, epc, cyc, halted;
    int64_t dbg_bkpt0, dbg_bkpt1, dbg_watch0, dbg_ctrl;
    int64_t irq_mask, irq_pending, cnt_branch, cnt_mem;
} RowMap;

#define N_ROWMAP 68

/* ISA/driver constants: filled from tables[1] (int64[28]).  Field
 * order MUST match the consts array of repro.faults.kernels.cext_tables. */
typedef struct {
    int64_t cls_alu, cls_mul, cls_lui, cls_mem, cls_branch;
    int64_t cls_jal, cls_jalr, cls_in, cls_out;
    int64_t cls_csrr, cls_csrw, cls_nop, cls_halt;
    int64_t cause_illegal, cause_bkpt, cause_irq;
    int64_t cause_mpu, cause_watch, cause_misaligned;
    int64_t exc_vector, status_cnt_en;
    int64_t op_mul, op_ld, op_ldb, op_st, op_stb, op_beq;
    int64_t n_regs;
} Consts;

#define N_CONSTS 28

#if defined(__STDC_VERSION__) && __STDC_VERSION__ >= 201112L
_Static_assert(sizeof(RowMap) == N_ROWMAP * sizeof(int64_t), "RowMap layout");
_Static_assert(sizeof(Consts) == N_CONSTS * sizeof(int64_t), "Consts layout");
#endif

typedef struct {
    u32 *S;
    Py_ssize_t n_rows, B;
    u32 *M;
    Py_ssize_t mem_words;
    const u32 *stim;
    Py_ssize_t stim_len;
    const int64_t *opc_cls;
    const uint8_t *opc_valid;
    const uint8_t *opc_imm;
    const int64_t *alu_sel;
    const u32 *lsu_op_of;
    const int64_t *rf_read;
    const int64_t *rf_write;
    const int64_t *csr_read;
    const int64_t *csr_write;
    const u32 *csr_wmask;
    const int64_t *port_rows;
    RowMap r;
    Consts c;
} Ctx;

#define S_(row, lane) x->S[(size_t)(row) * (size_t)x->B + (size_t)(lane)]

#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

/* Def/use recording, for golden() only.  The one step body below takes
 * a recorder; step() and inject() pass the constant NULL, so after
 * inlining no recording code is left in them.  With a recorder, every
 * row access notes its register as repro.cpu.core.AccessTracer notes
 * Cpu.step's dict accesses: a read counts only before the cycle's
 * first write of the row (a stale read), so a read-modify-write
 * counts as a read and a write, and the hardwired-zero and write-sink
 * rows (>= n_regs) are not registers.  This body reads some rows
 * eagerly that Cpu.step reads only on some paths; GET_IF records such
 * a read only under the condition on which Cpu.step makes it. */
typedef struct {
    uint64_t *rd, *wr;      /* this cycle's read and write mask rows */
    int64_t n_regs;
    int64_t cycle;
    int64_t *log;           /* (cycle, word, value after) per write */
    Py_ssize_t n_log;
} Rec;

static ALWAYS_INLINE u32 get_row(Ctx *x, Rec *rec, int record, int64_t row,
                                 Py_ssize_t i)
{
    if (rec != NULL && record && row < rec->n_regs) {
        const uint64_t bit = (uint64_t)1 << (row & 63);
        if (!(rec->wr[row >> 6] & bit))
            rec->rd[row >> 6] |= bit;
    }
    return S_(row, i);
}

static ALWAYS_INLINE void put_row(Ctx *x, Rec *rec, int64_t row,
                                  Py_ssize_t i, u32 value)
{
    if (rec != NULL && row < rec->n_regs)
        rec->wr[row >> 6] |= (uint64_t)1 << (row & 63);
    S_(row, i) = value;
}

#define GET(row) get_row(x, rec, 1, (row), i)
#define GET_IF(cond, row) get_row(x, rec, (cond), (row), i)
#define PUT(row, value) put_row(x, rec, (row), i, (value))

/* One lane, one cycle: `Cpu.step` on one SoA column. */
static ALWAYS_INLINE void step_body(Ctx *x, Py_ssize_t i, Rec *rec)
{
    const RowMap *r = &x->r;
    const Consts *c = &x->c;
    u32 *M = x->M + (size_t)i * (size_t)x->mem_words;
    const u32 mem_words = (u32)x->mem_words;

    /* ---------------- MW stage ---------------- */
    u32 lsu_valid = GET(r->lsu_valid);
    u32 sb_valid = GET(r->sb_valid);
    u32 mw_valid = GET(r->mw_valid);
    /* Cpu.step reads the request and the store buffer only when one of
     * them is valid. */
    const int mw_busy = lsu_valid || sb_valid;
    u32 lsu_op = GET_IF(mw_busy, r->lsu_op);
    u32 lsu_addr = GET_IF(mw_busy, r->lsu_addr);
    u32 sb_addr = GET_IF(mw_busy, r->sb_addr);
    u32 sb_data = GET_IF(mw_busy, r->sb_data);
    u32 sb_op = GET_IF(mw_busy, r->sb_op);

    int is_ld = lsu_valid && lsu_op == 1;
    int is_ldb = lsu_valid && lsu_op == 2;
    int is_load = is_ld || is_ldb;
    int is_st = lsu_valid && lsu_op == 3;
    int is_stb = lsu_valid && lsu_op == 4;
    int is_store = is_st || is_stb;
    int is_in = lsu_valid && lsu_op == 5;
    int is_out = lsu_valid && lsu_op == 6;

    int alias = ((sb_addr ^ lsu_addr) & 0xFFFFFFFCu) == 0;
    int drain_load = is_load && sb_valid && alias;
    int drain = drain_load || (is_store && sb_valid) || (sb_valid && !lsu_valid);

    if (drain) {
        u32 widx = (sb_addr >> 2) % mem_words;
        if (sb_op != 0) {
            u32 shift = (sb_addr & 3) * 8;
            u32 lane_mask = 0xFFu << shift;
            M[widx] = (M[widx] & ~lane_mask) | ((sb_data & 0xFF) << shift);
        } else {
            M[widx] = sb_data;
        }
        if (rec != NULL) {  /* at most one drain, so one entry, a cycle */
            int64_t *entry = rec->log + 3 * rec->n_log++;
            entry[0] = rec->cycle;
            entry[1] = widx;
            entry[2] = M[widx];
        }
    }

    u32 load_data = 0;
    if (is_load) {
        u32 word = M[(lsu_addr >> 2) % mem_words];
        u32 shift = (lsu_addr & 3) * 8;
        load_data = is_ldb ? (word >> shift) & 0xFF : word;
    }
    if (is_in) {
        u32 cursor = GET(r->io_in_idx);
        u32 val = x->stim[cursor % (u32)x->stim_len];
        load_data = val;
        PUT(r->io_in, val);
        PUT(r->io_in_idx, (cursor + 1) & 0xFFFF);
    }
    if (is_out) {
        PUT(r->io_out, GET(r->lsu_wdata));
        PUT(r->io_out_v, GET(r->io_out_v) ^ 1u);
    }

    if (drain_load || (sb_valid && !lsu_valid))
        PUT(r->sb_valid, 0);
    if (is_store) {
        PUT(r->sb_addr, lsu_addr);
        PUT(r->sb_data, GET(r->lsu_wdata));
        PUT(r->sb_op, (u32)is_stb);
        PUT(r->sb_valid, 1);
    }

    int d_read = is_load, d_write = drain;
    int d_any = d_read || d_write;
    u32 prim_addr = d_read ? lsu_addr : sb_addr;
    int prim_byte = d_read ? is_ldb : (sb_op != 0);
    if (d_any)
        PUT(r->dmc_addr, prim_addr);
    if (d_write)
        PUT(r->dmc_wdata, sb_data);
    if (d_read)
        PUT(r->dmc_rdata, load_data);
    PUT(r->dmc_ctrl, d_any ? ((u32)d_read | ((u32)d_write << 1) | 8) : 0);
    PUT(r->dmc_strb, d_any ? (prim_byte ? (1u << (prim_addr & 3)) : 0xFu) : 0);

    /* Writeback before DX reads the file (subsumes the bypass net). */
    u32 wb_value = GET_IF(mw_valid, r->mw_isload)
                   ? load_data : GET_IF(mw_valid, r->mw_val);
    if (mw_valid && GET(r->mw_wen))
        PUT(x->rf_write[GET(r->mw_rd) & 0xF], wb_value);
    if (mw_valid) {
        PUT(r->ret_pc, GET(r->mw_pc));
        PUT(r->ret_val, wb_value);
        PUT(r->ret_rd, GET(r->mw_rd));
    }
    PUT(r->ret_valid, mw_valid ? 1 : 0);

    /* ---------------- DX stage ---------------- */
    u32 if_valid_raw = GET(r->if_valid);
    int if_valid = if_valid_raw != 0;
    u32 if_pc = GET(r->if_pc);
    /* Cpu.step decodes, and looks for a trap, only when if_valid. */
    u32 word = GET_IF(if_valid, r->if_ir);
    u32 opnum = (word >> 26) & 0x3F;
    int64_t cls = x->opc_cls[opnum];
    u32 seq_next = if_pc + 4;
    u32 fetched_next = GET_IF(if_valid, r->if_pred)
                       ? GET_IF(if_valid, r->if_ptgt) : seq_next;

    int irq = ((GET_IF(if_valid, r->irq_pending)
                & GET_IF(if_valid, r->irq_mask)) != 0)
              && ((GET_IF(if_valid, r->status) & 1) == 0);
    u32 ctrl = GET_IF(if_valid && !irq, r->dbg_ctrl);
    int bk = !irq && ((ctrl & 3) != 0)
             && ((((ctrl & 1) != 0) && if_pc == GET_IF(if_valid, r->dbg_bkpt0))
                 || (((ctrl & 2) != 0)
                     && if_pc == GET_IF(if_valid, r->dbg_bkpt1)));
    int ill = !irq && !bk && !x->opc_valid[opnum];
    int trap = (irq || bk || ill) && if_valid;
    u32 trap_code = 0;
    if (ill)
        trap_code = (u32)c->cause_illegal;
    if (bk)
        trap_code = (u32)c->cause_bkpt;
    if (irq)
        trap_code = (u32)c->cause_irq;
    int dispatch = if_valid && !trap;

    u32 ra_f = (word >> 18) & 0xF;
    u32 rb_f = (word >> 14) & 0xF;
    u32 rd_f = (word >> 22) & 0xF;
    /* Cpu.step reads both operands of every instruction it executes. */
    u32 ra_val = GET_IF(dispatch, x->rf_read[ra_f]);
    u32 rb_val = GET_IF(dispatch, x->rf_read[rb_f]);
    u32 imm32 = (word & 0x2000) ? ((word & 0x1FFF) | 0xFFFFE000u)
                                : (word & 0x1FFF);

    u32 n_mw_valid = 0, n_mw_wen = 0, n_mw_isload = 0, n_mw_rd = 0,
        n_mw_val = 0;
    u32 n_lsu_valid = 0, n_lsu_op = 0, n_br_valid = 0;
    int stall = 0, halt_now = 0;
    u32 actual_next = seq_next;
    u32 bidx = (if_pc >> 2) & 3;

    if (dispatch && cls == c->cls_alu) {
        int64_t sel = x->alu_sel[opnum];
        u32 a32 = ra_val;
        u32 b32 = x->opc_imm[opnum] ? imm32 : rb_val;
        u32 add_res = a32 + b32;
        u32 sub_res = a32 - b32;
        u32 sh = b32 & 31;
        u32 res = 0, carry = 0, ovf = 0;
        switch (sel) {
        case 1:
            res = add_res;
            carry = add_res < a32;
            ovf = ((~(a32 ^ b32) & (a32 ^ add_res)) >> 31) & 1;
            break;
        case 2:
            res = sub_res;
            carry = a32 >= b32;
            ovf = (((a32 ^ b32) & (a32 ^ sub_res)) >> 31) & 1;
            break;
        case 3: res = a32 & b32; break;
        case 4: res = a32 | b32; break;
        case 5: res = a32 ^ b32; break;
        case 6: res = a32 << sh; break;
        case 7: res = a32 >> sh; break;
        case 8: res = (u32)((int32_t)a32 >> (int)sh); break;
        case 9: res = (int32_t)a32 < (int32_t)b32; break;
        case 10: res = a32 < b32; break;
        default: break;
        }
        u32 nf = (res >> 31) & 1;
        u32 zf = res == 0;
        PUT(r->flags, (nf << 3) | (zf << 2) | (carry << 1) | ovf);
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_rd = rd_f;
        n_mw_val = res;
    } else if (dispatch && cls == c->cls_mul) {
        if (!GET(r->mul_pending)) {
            PUT(r->mul_a, ra_val);
            PUT(r->mul_b, rb_val);
            PUT(r->mul_pending, 1);
            stall = 1;
        } else {
            uint64_t prod = (uint64_t)GET(r->mul_a) * (uint64_t)GET(r->mul_b);
            u32 mres = (opnum == (u32)c->op_mul) ? (u32)prod
                                                 : (u32)(prod >> 32);
            PUT(r->flags, ((mres >> 31) & 1) << 3 | ((u32)(mres == 0)) << 2);
            PUT(r->mul_pending, 0);
            n_mw_valid = 1;
            n_mw_wen = 1;
            n_mw_rd = rd_f;
            n_mw_val = mres;
        }
    } else if (dispatch && cls == c->cls_lui) {
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_rd = rd_f;
        n_mw_val = (word & 0xFFFF) << 16;
    } else if (dispatch && cls == c->cls_mem) {
        u32 addr = ra_val + imm32;
        int word_op = opnum == (u32)c->op_ld || opnum == (u32)c->op_st;
        int misal = word_op && (addr & 3) != 0;
        int watch = !misal && (ctrl & 4) != 0 && addr == GET(r->dbg_watch0);
        /* The MPU is consulted, region by region up to the first hit,
         * only for an access that neither misaligns nor hits the
         * watchpoint, as Cpu.step consults it. */
        int mpu = 0;
        if (!misal && !watch) {
            u32 mc = GET(r->mpu_ctrl);
            int reg;
            for (reg = 0; mc != 0 && reg < 4 && !mpu; reg++)
                mpu = ((mc >> (2 * reg)) & 3) == 3
                      && GET(r->mpu_base0 + reg) <= addr
                      && addr < GET(r->mpu_limit0 + reg);
        }
        if (mpu)
            trap_code = (u32)c->cause_mpu;
        if (watch)
            trap_code = (u32)c->cause_watch;
        if (misal)
            trap_code = (u32)c->cause_misaligned;
        if (misal || watch || mpu) {
            trap = 1;
        } else {
            if (GET(r->status) & (u32)c->status_cnt_en)
                PUT(r->cnt_mem, GET(r->cnt_mem) + 1);
            n_lsu_valid = 1;
            n_lsu_op = x->lsu_op_of[opnum];
            PUT(r->lsu_addr, addr);
            if (opnum == (u32)c->op_st || opnum == (u32)c->op_stb)
                PUT(r->lsu_wdata, rb_val);
            n_mw_valid = 1;
            if (opnum == (u32)c->op_ld || opnum == (u32)c->op_ldb) {
                n_mw_wen = 1;
                n_mw_isload = 1;
            }
            n_mw_rd = rd_f;
            n_mw_val = addr;
        }
    } else if (dispatch && cls == c->cls_branch) {
        if (GET(r->status) & (u32)c->status_cnt_en)
            PUT(r->cnt_branch, GET(r->cnt_branch) + 1);
        int64_t bsel = (int64_t)opnum - c->op_beq;
        if (bsel < 0)
            bsel = 0;
        if (bsel > 5)
            bsel = 5;
        int taken = 0;
        switch (bsel) {
        case 0: taken = ra_val == rb_val; break;
        case 1: taken = ra_val != rb_val; break;
        case 2: taken = (int32_t)ra_val < (int32_t)rb_val; break;
        case 3: taken = (int32_t)ra_val >= (int32_t)rb_val; break;
        case 4: taken = ra_val < rb_val; break;
        case 5: taken = ra_val >= rb_val; break;
        }
        u32 target = seq_next + (imm32 << 2);
        PUT(r->br_target, target);
        PUT(r->br_taken, (u32)taken);
        n_br_valid = 1;
        if (taken) {
            actual_next = target;
            PUT(r->btb_tag0 + bidx, if_pc);
            PUT(r->btb_tgt0 + bidx, target);
            PUT(r->btb_v, GET(r->btb_v) | (1u << bidx));
        } else if (GET(r->if_pred) && GET(r->btb_tag0 + bidx) == if_pc) {
            /* NOT4[bidx]: clears the way bit and any bits above 3. */
            PUT(r->btb_v, GET(r->btb_v) & (~(1u << bidx)) & 0xF);
        }
        n_mw_valid = 1;
    } else if (dispatch && (cls == c->cls_jal || cls == c->cls_jalr)) {
        u32 off32 = (word & 0x20000) ? ((word & 0x1FFFF) | 0xFFFE0000u)
                                     : (word & 0x3FFFF);
        u32 jt = (cls == c->cls_jal) ? seq_next + (off32 << 2)
                                     : (ra_val + imm32) & 0xFFFFFFFCu;
        actual_next = jt;
        PUT(r->br_target, jt);
        PUT(r->br_taken, 1);
        n_br_valid = 1;
        PUT(r->btb_tag0 + bidx, if_pc);
        PUT(r->btb_tgt0 + bidx, jt);
        PUT(r->btb_v, GET(r->btb_v) | (1u << bidx));
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_rd = rd_f;
        n_mw_val = seq_next;
    } else if (dispatch && cls == c->cls_in) {
        n_lsu_valid = 1;
        n_lsu_op = 5;
        PUT(r->lsu_addr, imm32);
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_isload = 1;
        n_mw_rd = rd_f;
    } else if (dispatch && cls == c->cls_out) {
        n_lsu_valid = 1;
        n_lsu_op = 6;
        PUT(r->lsu_addr, imm32);
        PUT(r->lsu_wdata, rb_val);
        n_mw_valid = 1;
    } else if (dispatch && cls == c->cls_csrr) {
        u32 csr_idx = word & 0x3FFF;
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_rd = rd_f;
        /* Cpu.step reads a CSR with getattr, which bypasses its access
         * tracer, so no CSRR read is recorded. */
        n_mw_val = S_(x->csr_read[csr_idx], i);
    } else if (dispatch && cls == c->cls_csrw) {
        u32 csr_idx = word & 0x3FFF;
        PUT(x->csr_write[csr_idx], rb_val & x->csr_wmask[csr_idx]);
        n_mw_valid = 1;
    } else if (dispatch && cls == c->cls_nop) {
        n_mw_valid = 1;
    } else if (dispatch && cls == c->cls_halt) {
        halt_now = 1;
    }

    if (trap) {
        PUT(r->cause, trap_code);
        PUT(r->epc, if_pc);
        PUT(r->status, GET(r->status) | 1);
        PUT(r->sflags, GET(r->flags));
    }

    int mispred = dispatch && !trap && !stall && !halt_now
                  && actual_next != fetched_next;
    int redirect = trap || mispred;
    u32 redirect_tgt = trap ? (u32)c->exc_vector : actual_next;

    /* DX -> MW latches.  A bubble or a stall keeps mw_pc, which
     * Cpu.step reads for it (before the overwrite below). */
    u32 n_mw_pc = if_valid && !stall ? if_pc : GET(r->mw_pc);
    PUT(r->mw_valid, stall ? 0 : n_mw_valid);
    if (!stall) {
        PUT(r->mw_wen, n_mw_wen);
        PUT(r->mw_isload, n_mw_isload);
        PUT(r->mw_rd, n_mw_rd);
        PUT(r->mw_val, n_mw_val);
        PUT(r->mw_pc, n_mw_pc);
    }
    PUT(r->lsu_valid, stall ? 0 : n_lsu_valid);
    PUT(r->lsu_op, stall ? 0 : n_lsu_op);
    PUT(r->br_valid, n_br_valid);

    /* ---------------- IF stages ---------------- */
    u32 fetch_addr = 0, fetch_word = 0;
    int fetched = 0;
    u32 pc_old = GET(r->pc);  /* Cpu.step reads pc every cycle */
    if (halt_now) {
        PUT(r->halted, 1);
        PUT(r->if_valid, 0);
        PUT(r->imc_valid, 0);
        PUT(r->imc_pred, 0);
    } else if (redirect) {
        PUT(r->pc, redirect_tgt);
        PUT(r->if_valid, 0);
        PUT(r->if_pred, 0);
        PUT(r->imc_valid, 0);
        PUT(r->imc_pred, 0);
    } else if (!stall) {
        /* IF2: prefetch buffer -> decode latch. */
        PUT(r->if_ir, GET(r->imc_data));
        PUT(r->if_pc, GET(r->imc_addr));
        PUT(r->if_valid, GET(r->imc_valid));
        PUT(r->if_pred, GET(r->imc_pred));
        PUT(r->if_ptgt, GET(r->imc_ptgt));
        /* IF1: fetch at pc with BTB next-fetch prediction. */
        u32 fw = M[(pc_old >> 2) % mem_words];
        PUT(r->imc_addr, pc_old);
        PUT(r->imc_data, fw);
        PUT(r->imc_valid, 1);
        u32 fb = (pc_old >> 2) & 3;
        if ((GET(r->btb_v) & (1u << fb)) != 0
            && GET(r->btb_tag0 + fb) == pc_old) {
            u32 tgt = GET(r->btb_tgt0 + fb);
            PUT(r->pc, tgt);
            PUT(r->imc_pred, 1);
            PUT(r->imc_ptgt, tgt);
        } else {
            PUT(r->pc, pc_old + 4);
            PUT(r->imc_pred, 0);
        }
        fetch_addr = pc_old;
        fetch_word = fw;
        fetched = 1;
    }

    /* ---------------- BIU external bus view ---------------- */
    if (d_any) {
        PUT(r->bus_addr, prim_addr);
        PUT(r->bus_data, d_read ? load_data : sb_data);
        PUT(r->bus_ctrl, d_write ? 3 : 2);
    } else if (fetched) {
        PUT(r->bus_addr, fetch_addr);
        PUT(r->bus_data, fetch_word);
        PUT(r->bus_ctrl, 1);
    } else {
        PUT(r->bus_ctrl, 0);
    }

    PUT(r->cyc, GET(r->cyc) + 1);
}

static void step_lane(Ctx *x, Py_ssize_t i)
{
    step_body(x, i, NULL);
}

/* -- buffer plumbing -------------------------------------------------------- */

typedef struct {
    const char *name;
    int writable;
    Py_ssize_t itemsize;
} BufSpec;

static int get_buf(PyObject *obj, Py_buffer *view, const BufSpec *spec)
{
    int flags = PyBUF_C_CONTIGUOUS;
    if (spec->writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != spec->itemsize) {
        PyErr_Format(PyExc_ValueError, "%s: expected itemsize %zd, got %zd",
                     spec->name, spec->itemsize, view->itemsize);
        PyBuffer_Release(view);
        view->obj = NULL;
        return -1;
    }
    return 0;
}

static const BufSpec TABLE_SPECS[13] = {
    {"rowmap", 0, 8},     {"consts", 0, 8},        {"opc_cls", 0, 8},
    {"opc_valid", 0, 1},  {"opc_imm", 0, 1},       {"alu_sel", 0, 8},
    {"lsu_op_of", 0, 4},  {"rf_read_row", 0, 8},   {"rf_write_row", 0, 8},
    {"csr_read_row", 0, 8}, {"csr_write_row", 0, 8}, {"csr_write_mask", 0, 4},
    {"port_rows16", 0, 8},
};

/* Fill the Ctx tables from the 13-tuple; all buffers are recorded in
 * `views` for release by the caller, which may release them whether
 * or not this succeeds. */
static int load_tables(PyObject *tables, Py_buffer views[13], Ctx *x)
{
    Py_ssize_t k;
    for (k = 0; k < 13; k++)
        views[k].obj = NULL;
    if (!PyTuple_Check(tables) || PyTuple_GET_SIZE(tables) != 13) {
        PyErr_SetString(PyExc_TypeError, "tables must be a 13-tuple");
        return -1;
    }
    for (k = 0; k < 13; k++) {
        if (get_buf(PyTuple_GET_ITEM(tables, k), &views[k],
                    &TABLE_SPECS[k]) < 0)
            return -1;
    }
    if (views[0].len != N_ROWMAP * 8 || views[1].len != N_CONSTS * 8) {
        PyErr_SetString(PyExc_ValueError, "rowmap/consts length mismatch");
        return -1;
    }
    memcpy(&x->r, views[0].buf, sizeof(RowMap));
    memcpy(&x->c, views[1].buf, sizeof(Consts));
    x->opc_cls = (const int64_t *)views[2].buf;
    x->opc_valid = (const uint8_t *)views[3].buf;
    x->opc_imm = (const uint8_t *)views[4].buf;
    x->alu_sel = (const int64_t *)views[5].buf;
    x->lsu_op_of = (const u32 *)views[6].buf;
    x->rf_read = (const int64_t *)views[7].buf;
    x->rf_write = (const int64_t *)views[8].buf;
    x->csr_read = (const int64_t *)views[9].buf;
    x->csr_write = (const int64_t *)views[10].buf;
    x->csr_wmask = (const u32 *)views[11].buf;
    x->port_rows = (const int64_t *)views[12].buf;
    return 0;
}

static void release_all(Py_buffer *views, Py_ssize_t count)
{
    Py_ssize_t k;
    for (k = 0; k < count; k++) {
        if (views[k].obj != NULL)
            PyBuffer_Release(&views[k]);
    }
}

/* -- step(S, M, stim, tables, n): one plain cycle, no driver logic --------- */

static PyObject *py_step(PyObject *self, PyObject *args)
{
    PyObject *s_obj, *m_obj, *stim_obj, *tables;
    Py_ssize_t n;
    if (!PyArg_ParseTuple(args, "OOOOn", &s_obj, &m_obj, &stim_obj,
                          &tables, &n))
        return NULL;

    Py_buffer sv = {0}, mv = {0}, stv = {0}, tv[13];
    Ctx x;
    PyObject *ret = NULL;
    static const BufSpec s_spec = {"S", 1, 4};
    static const BufSpec m_spec = {"M", 1, 4};
    static const BufSpec st_spec = {"stim", 0, 4};

    if (get_buf(s_obj, &sv, &s_spec) < 0)
        return NULL;
    if (get_buf(m_obj, &mv, &m_spec) < 0)
        goto done_s;
    if (get_buf(stim_obj, &stv, &st_spec) < 0)
        goto done_m;
    if (load_tables(tables, tv, &x) < 0)
        goto done_tables;
    if (sv.ndim != 2 || mv.ndim != 2) {
        PyErr_SetString(PyExc_ValueError, "S and M must be 2-D");
        goto done_tables;
    }
    x.S = (u32 *)sv.buf;
    x.n_rows = sv.shape[0];
    x.B = sv.shape[1];
    x.M = (u32 *)mv.buf;
    x.mem_words = mv.shape[1];
    x.stim = (const u32 *)stv.buf;
    x.stim_len = stv.len / 4;
    if (n < 0 || n > x.B || mv.shape[0] != x.B || x.stim_len <= 0
        || x.mem_words <= 0) {
        PyErr_SetString(PyExc_ValueError, "inconsistent lane shapes");
        goto done_tables;
    }

    {
        Py_ssize_t i;
        for (i = 0; i < n; i++)
            step_lane(&x, i);
    }
    ret = Py_None;
    Py_INCREF(ret);

done_tables:
    release_all(tv, 13);
    PyBuffer_Release(&stv);
done_m:
    PyBuffer_Release(&mv);
done_s:
    PyBuffer_Release(&sv);
    return ret;
}

/* -- golden(S, M, stim, tables, max_cycles): a recorded fault-free run ----
 *
 * repro.faults.golden.GoldenTrace records a workload's fault-free run
 * by stepping Cpu (the specification) with an AccessTracer attached.
 * golden() records the same run with the step body above: lane 0 of S
 * and M (the reset state and the program image; B must be 1) runs to
 * HALT.  It returns None when the lane has not halted after max_cycles
 * cycles, else (n_cycles, states, ports, reads, writes, log), the last
 * five as bytearrays:
 *   states  uint32 (n_cycles, n_regs), the state at the start of each
 *           cycle;
 *   ports   uint32 (n_cycles, 18), the compact port tuple Cpu.step
 *           returns, as inject() compares it;
 *   reads, writes  uint64 (n_cycles, mask words), each cycle's register
 *           read and write masks (bit k of word k / 64 for S row k);
 *   log     int64 (n_writes, 3), (cycle, word, value after) for every
 *           memory write, in order.
 * Every read mask starts with the registers Cpu.step reads for its
 * port tuple and its halted check, before anything else.  The buffers
 * grow with the cycles run (doubling), never to max_cycles up front,
 * and the loop runs with the GIL released. */

#define GOLDEN_MAX_WORDS 4
#define GOLDEN_FIRST_ROWS 1024

enum { G_STATES, G_PORTS, G_READS, G_WRITES, G_LOG, G_N };

static PyObject *py_golden(PyObject *self, PyObject *args)
{
    PyObject *s_obj, *m_obj, *stim_obj, *tables;
    Py_ssize_t max_cycles;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOn", &s_obj, &m_obj, &stim_obj, &tables,
                          &max_cycles))
        return NULL;

    Py_buffer sv = {0}, mv = {0}, stv = {0}, tv[13];
    static const BufSpec s_spec = {"S", 1, 4};
    static const BufSpec m_spec = {"M", 1, 4};
    static const BufSpec st_spec = {"stim", 0, 4};
    Ctx ctx;
    Ctx *x = &ctx;
    void *buf[G_N] = {NULL, NULL, NULL, NULL, NULL};
    PyObject *items[G_N] = {NULL, NULL, NULL, NULL, NULL};
    PyObject *ret = NULL;
    int tables_held = 0;
    Py_ssize_t k;

    if (get_buf(s_obj, &sv, &s_spec) < 0)
        return NULL;
    if (get_buf(m_obj, &mv, &m_spec) < 0)
        goto cleanup;
    if (get_buf(stim_obj, &stv, &st_spec) < 0)
        goto cleanup;
    tables_held = 1;
    if (load_tables(tables, tv, x) < 0)
        goto cleanup;
    if (sv.ndim != 2 || mv.ndim != 2) {
        PyErr_SetString(PyExc_ValueError, "S and M must be 2-D");
        goto cleanup;
    }
    x->S = (u32 *)sv.buf;
    x->n_rows = sv.shape[0];
    x->B = sv.shape[1];
    x->M = (u32 *)mv.buf;
    x->mem_words = mv.shape[1];
    x->stim = (const u32 *)stv.buf;
    x->stim_len = stv.len / 4;

    const RowMap *r = &x->r;
    const Py_ssize_t n_regs = (Py_ssize_t)x->c.n_regs;
    const Py_ssize_t words = (n_regs + 63) / 64;
    if (x->B != 1 || mv.shape[0] != 1 || n_regs < 1
        || x->n_rows < n_regs + 2 || words > GOLDEN_MAX_WORDS
        || x->stim_len <= 0 || x->mem_words <= 0 || max_cycles < 0) {
        PyErr_SetString(PyExc_ValueError, "inconsistent golden shapes");
        goto cleanup;
    }

    const size_t row_bytes[G_N] = {
        (size_t)n_regs * 4, 18 * 4, (size_t)words * 8, (size_t)words * 8,
        3 * 8,
    };
    /* The port tuple's registers: the 16 port rows plus the four the
     * two event entries combine. */
    uint64_t port_reads[GOLDEN_MAX_WORDS] = {0};
    {
        int64_t rows[20];
        for (k = 0; k < 16; k++)
            rows[k] = x->port_rows[k];
        rows[16] = r->status;
        rows[17] = r->halted;
        rows[18] = r->br_taken;
        rows[19] = r->br_valid;
        for (k = 0; k < 20; k++) {
            if (rows[k] < 0 || rows[k] >= n_regs) {
                PyErr_SetString(PyExc_ValueError, "port row out of range");
                goto cleanup;
            }
            port_reads[rows[k] >> 6] |= (uint64_t)1 << (rows[k] & 63);
        }
    }

    Py_ssize_t t = 0, cap = 0;
    int oom = 0;
    Rec rec = {NULL, NULL, n_regs, 0, NULL, 0};
    const Py_ssize_t i = 0;  /* the lane S_ addresses */

    Py_BEGIN_ALLOW_THREADS
    while (!S_(r->halted, i) && t < max_cycles) {
        if (t == cap) {
            cap = cap ? 2 * cap : GOLDEN_FIRST_ROWS;
            if (cap > max_cycles)
                cap = max_cycles;
            for (k = 0; k < G_N && !oom; k++) {
                void *grown = PyMem_RawRealloc(buf[k], (size_t)cap
                                                       * row_bytes[k]);
                if (grown == NULL)
                    oom = 1;
                else
                    buf[k] = grown;
            }
            if (oom)
                break;
        }
        u32 *state = (u32 *)buf[G_STATES] + (size_t)t * (size_t)n_regs;
        Py_ssize_t row;
        for (row = 0; row < n_regs; row++)
            state[row] = S_(row, i);
        u32 *port = (u32 *)buf[G_PORTS] + (size_t)t * 18;
        for (k = 0; k < 16; k++)
            port[k] = S_(x->port_rows[k], i);
        port[16] = (S_(r->status, i) & 1) | (S_(r->halted, i) << 1);
        port[17] = S_(r->br_taken, i) | (S_(r->br_valid, i) << 1);
        rec.rd = (uint64_t *)buf[G_READS] + (size_t)t * (size_t)words;
        rec.wr = (uint64_t *)buf[G_WRITES] + (size_t)t * (size_t)words;
        memcpy(rec.rd, port_reads, (size_t)words * 8);
        memset(rec.wr, 0, (size_t)words * 8);
        rec.log = (int64_t *)buf[G_LOG];
        rec.cycle = t;
        step_body(x, i, &rec);
        t++;
    }
    Py_END_ALLOW_THREADS

    if (oom) {
        PyErr_NoMemory();
        goto cleanup;
    }
    if (!S_(r->halted, i)) {
        ret = Py_None;
        Py_INCREF(ret);
        goto cleanup;
    }
    for (k = 0; k < G_N; k++) {
        size_t n_rows = k == G_LOG ? (size_t)rec.n_log : (size_t)t;
        items[k] = PyByteArray_FromStringAndSize(
            (const char *)buf[k], (Py_ssize_t)(n_rows * row_bytes[k]));
        if (items[k] == NULL)
            goto cleanup;
    }
    ret = Py_BuildValue("(nOOOOO)", t, items[G_STATES], items[G_PORTS],
                        items[G_READS], items[G_WRITES], items[G_LOG]);

cleanup:
    for (k = 0; k < G_N; k++) {
        Py_XDECREF(items[k]);
        PyMem_RawFree(buf[k]);
    }
    if (tables_held)
        release_all(tv, 13);
    if (stv.obj != NULL)
        PyBuffer_Release(&stv);
    if (mv.obj != NULL)
        PyBuffer_Release(&mv);
    PyBuffer_Release(&sv);
    return ret;
}

/* -- triage(): liveness triage of a shard's faults -------------------------
 *
 * repro.faults.injector.triage_fault (the specification) decides each
 * fault with the per-fault GoldenTrace queries soft_start,
 * activation_cycle and first_active_use.  triage() gives the same
 * (decision, activation, start, end) for a whole column of faults in
 * one call.  Faults are bucketed by register; for each register with
 * faults one backward pass over the golden rows builds, for every
 * cycle t from the earliest fault cycle on,
 *   next_use[t], next_kill[t]  the first use / kill cycle >= t;
 *   or_all[t], and_all[t]      OR / AND of the register's values over
 *                              cycles >= t;
 *   or_use[t], and_use[t]      the same over use cycles only;
 * after which a soft fault takes two lookups, and a stuck-at fault one
 * lookup that proves it never active (or never used while active), or
 * else a forward scan of the register's value column that ends at the
 * hit the suffix masks promise.  The use/kill rule is
 * GoldenTrace._liveness's: a stale read is a use; a write is a use of
 * a register without full_write, and a kill (no stale read) of one
 * with it.  A scratch remembers the register and first cycle its
 * suffixes were built for, and skips the pass when they serve: inject()
 * triages one stuck-at at a time on every fast-forward, at increasing
 * cycles of a lane, and builds its register's suffixes once. */

enum {
    TRI_OUT_OF_RANGE = 0, TRI_SOFT_PRUNED = 1, TRI_NEVER_ACTIVE = 2,
    TRI_HARD_PRUNED = 3, TRI_SIMULATE = 4,
};
enum { KIND_SOFT = 0, KIND_STUCK0 = 1, KIND_STUCK1 = 2 };

typedef struct {
    const u32 *sm;
    const uint64_t *rd, *wr;
    Py_ssize_t sm_cols, n, mask_words;
    const uint8_t *full_write;
    const int64_t *reg, *bit, *cycle;
    const uint8_t *kind;
    uint8_t *decision;
    int64_t *act, *start, *end;
    int prune;
    int64_t max_observe;        /* -1: no cap */
} TriageJob;

/* Per-register scratch, n + 1 entries each (index n is the sentinel).
 * The suffixes at t depend only on golden rows t..n, so the ones held
 * for register `reg` from cycle `lo` on serve any later cycle of it. */
typedef struct {
    u32 *col, *or_all, *and_all, *or_use, *and_use;
    int64_t *next_use, *next_kill;
    uint8_t *use;
    Py_ssize_t reg, lo;         /* what the suffixes hold; reg -1: none */
} TriageScratch;

#define TRIAGE_SCRATCH_BYTES(n) \
    (((size_t)(n) + 1) * (5 * sizeof(u32) + 2 * sizeof(int64_t) \
                          + sizeof(uint8_t)))

/* Lay out a scratch of TRIAGE_SCRATCH_BYTES(n) bytes; it holds nothing. */
static void triage_scratch(TriageScratch *s, void *buf, Py_ssize_t n)
{
    const size_t m = (size_t)n + 1;
    s->next_use = (int64_t *)buf;
    s->next_kill = s->next_use + m;
    s->col = (u32 *)(s->next_kill + m);
    s->or_all = s->col + m;
    s->and_all = s->or_all + m;
    s->or_use = s->and_all + m;
    s->and_use = s->or_use + m;
    s->use = (uint8_t *)(s->and_use + m);
    s->reg = -1;
    s->lo = n;
}

/* Register r's suffixes from cycle lo on, unless s holds them. */
static void triage_suffixes(const TriageJob *j, TriageScratch *s,
                            Py_ssize_t r, Py_ssize_t lo)
{
    const Py_ssize_t n = j->n;
    const Py_ssize_t word = r / 64;
    const unsigned shift = (unsigned)(r % 64);
    const int full = j->full_write[r] != 0;
    Py_ssize_t t;

    if (s->reg == r && s->lo <= lo)
        return;
    s->reg = r;
    s->lo = lo;
    s->next_use[n] = n;
    s->next_kill[n] = n;
    s->or_all[n] = 0;
    s->and_all[n] = 0xFFFFFFFFu;
    s->or_use[n] = 0;
    s->and_use[n] = 0xFFFFFFFFu;
    for (t = n - 1; t >= lo; t--) {
        u32 v = j->sm[(size_t)t * (size_t)j->sm_cols + (size_t)r];
        int rd = (int)((j->rd[(size_t)t * (size_t)j->mask_words + word]
                        >> shift) & 1u);
        int wr = (int)((j->wr[(size_t)t * (size_t)j->mask_words + word]
                        >> shift) & 1u);
        int use = full ? rd : (rd | wr);
        int kill = full && wr && !rd;
        s->col[t] = v;
        s->use[t] = (uint8_t)use;
        s->next_use[t] = use ? t : s->next_use[t + 1];
        s->next_kill[t] = kill ? t : s->next_kill[t + 1];
        s->or_all[t] = v | s->or_all[t + 1];
        s->and_all[t] = v & s->and_all[t + 1];
        s->or_use[t] = use ? (v | s->or_use[t + 1]) : s->or_use[t + 1];
        s->and_use[t] = use ? (v & s->and_use[t + 1]) : s->and_use[t + 1];
    }
}

static void triage_register(const TriageJob *j, TriageScratch *s,
                            Py_ssize_t r, const int64_t *idx, Py_ssize_t count)
{
    const Py_ssize_t n = j->n;
    Py_ssize_t q, lo = n, t;

    for (q = 0; q < count; q++) {
        int64_t c = j->cycle[idx[q]];
        if (c >= 0 && c < n && c < lo)
            lo = (Py_ssize_t)c;
    }
    triage_suffixes(j, s, r, lo);
    for (q = 0; q < count; q++) {
        const int64_t f = idx[q], c = j->cycle[f];
        int64_t act = -1, start = -1, end = -1;
        uint8_t decision;
        if (c < 0 || c >= n) {
            decision = TRI_OUT_OF_RANGE;
        } else if (j->kind[f] == KIND_SOFT) {
            act = c;
            end = n;
            if (!j->prune) {
                start = c;
                decision = TRI_SIMULATE;
            } else if (s->next_use[c] == n
                       || s->next_kill[c] < s->next_use[c]) {
                decision = TRI_SOFT_PRUNED;  /* never read again, or
                                                overwritten first */
            } else {
                start = s->next_use[c];
                decision = TRI_SIMULATE;
            }
        } else {
            /* Active: the golden bit differs from the stuck value. */
            const u32 m = (u32)1 << j->bit[f];
            const u32 stuck = j->kind[f] == KIND_STUCK1 ? m : 0;
            int ever = stuck ? !(s->and_all[c] & m) : (s->or_all[c] & m) != 0;
            if (!ever) {
                decision = TRI_NEVER_ACTIVE;
            } else {
                t = (Py_ssize_t)c;
                while ((s->col[t] & m) == stuck)
                    t++;
                act = t;
                end = j->max_observe < 0 || j->max_observe >= n - act
                      ? n : act + j->max_observe;
                if (!j->prune) {
                    start = act;
                    decision = TRI_SIMULATE;
                } else if (stuck ? (s->and_use[act] & m) != 0
                                 : !(s->or_use[act] & m)) {
                    decision = TRI_HARD_PRUNED;  /* never used while active */
                } else {
                    while (!s->use[t] || (s->col[t] & m) == stuck)
                        t++;
                    start = t;
                    decision = start >= end ? TRI_HARD_PRUNED : TRI_SIMULATE;
                }
            }
        }
        j->decision[f] = decision;
        j->act[f] = act;
        j->start[f] = start;
        j->end[f] = end;
    }
}

static PyObject *py_triage(PyObject *self, PyObject *args)
{
    enum { T_SM, T_RD, T_WR, T_FULL, T_REG, T_BIT, T_KIND, T_CYC, T_DEC,
           T_ACT, T_START, T_END, NT };
    static const BufSpec specs[NT] = {
        {"sm", 0, 4},        {"read_mask", 0, 8},  {"write_mask", 0, 8},
        {"full_write", 0, 1}, {"reg", 0, 8},       {"bit", 0, 8},
        {"kind", 0, 1},      {"cycle", 0, 8},      {"decision", 1, 1},
        {"act", 1, 8},       {"start", 1, 8},      {"end", 1, 8},
    };
    PyObject *objs[NT];
    Py_buffer views[NT];
    int prune;
    long long max_observe;
    Py_ssize_t k, n_faults, n_regs, *bucket = NULL;
    int64_t *order = NULL;
    void *scratch = NULL;
    PyObject *ret = NULL;
    (void)self;

    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOpL", &objs[T_SM], &objs[T_RD],
                          &objs[T_WR], &objs[T_FULL], &objs[T_REG],
                          &objs[T_BIT], &objs[T_KIND], &objs[T_CYC],
                          &objs[T_DEC], &objs[T_ACT], &objs[T_START],
                          &objs[T_END], &prune, &max_observe))
        return NULL;
    for (k = 0; k < NT; k++)
        views[k].obj = NULL;
    for (k = 0; k < NT; k++) {
        if (get_buf(objs[k], &views[k], &specs[k]) < 0)
            goto cleanup;
    }
    if (views[T_SM].ndim != 2 || views[T_RD].ndim != 2
            || views[T_WR].ndim != 2) {
        PyErr_SetString(PyExc_ValueError, "sm and the masks must be 2-D");
        goto cleanup;
    }
    TriageJob j;
    j.sm = (const u32 *)views[T_SM].buf;
    j.n = views[T_SM].shape[0];
    j.sm_cols = views[T_SM].shape[1];
    j.rd = (const uint64_t *)views[T_RD].buf;
    j.wr = (const uint64_t *)views[T_WR].buf;
    j.mask_words = views[T_RD].shape[1];
    j.full_write = (const uint8_t *)views[T_FULL].buf;
    n_regs = views[T_FULL].len;
    n_faults = views[T_CYC].len / 8;
    if (j.n < 1 || n_regs > j.sm_cols || n_regs > 64 * j.mask_words
            || views[T_RD].shape[0] != j.n || views[T_WR].shape[0] != j.n
            || views[T_WR].shape[1] != j.mask_words
            || views[T_REG].len / 8 != n_faults
            || views[T_BIT].len / 8 != n_faults
            || views[T_KIND].len != n_faults
            || views[T_DEC].len != n_faults
            || views[T_ACT].len / 8 != n_faults
            || views[T_START].len / 8 != n_faults
            || views[T_END].len / 8 != n_faults) {
        PyErr_SetString(PyExc_ValueError, "inconsistent triage shapes");
        goto cleanup;
    }
    if (max_observe < -1 || max_observe == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "max_observe must be -1 (no cap) or >= 1");
        goto cleanup;
    }
    j.reg = (const int64_t *)views[T_REG].buf;
    j.bit = (const int64_t *)views[T_BIT].buf;
    j.kind = (const uint8_t *)views[T_KIND].buf;
    j.cycle = (const int64_t *)views[T_CYC].buf;
    j.decision = (uint8_t *)views[T_DEC].buf;
    j.act = (int64_t *)views[T_ACT].buf;
    j.start = (int64_t *)views[T_START].buf;
    j.end = (int64_t *)views[T_END].buf;
    j.prune = prune;
    j.max_observe = (int64_t)max_observe;
    for (k = 0; k < n_faults; k++) {
        if (j.reg[k] < 0 || j.reg[k] >= n_regs || j.bit[k] < 0
                || j.bit[k] > 31 || j.kind[k] > KIND_STUCK1) {
            PyErr_Format(PyExc_ValueError,
                         "fault %zd: register row, bit or kind out of range",
                         k);
            goto cleanup;
        }
    }

    /* Bucket the faults by register (counting sort, input order kept
     * within a register) and size the per-register scratch. */
    bucket = PyMem_Calloc((size_t)n_regs + 1, sizeof(Py_ssize_t));
    order = PyMem_Malloc((size_t)(n_faults ? n_faults : 1) * sizeof(int64_t));
    scratch = PyMem_Malloc(TRIAGE_SCRATCH_BYTES(j.n));
    if (bucket == NULL || order == NULL || scratch == NULL) {
        PyErr_NoMemory();
        goto cleanup;
    }
    Py_BEGIN_ALLOW_THREADS
    {
        TriageScratch s;
        Py_ssize_t r;
        triage_scratch(&s, scratch, j.n);
        for (k = 0; k < n_faults; k++)
            bucket[j.reg[k] + 1]++;
        for (r = 0; r < n_regs; r++)
            bucket[r + 1] += bucket[r];
        for (k = 0; k < n_faults; k++)
            order[bucket[j.reg[k]]++] = k;
        /* bucket[r] now ends register r's run; it starts at bucket[r-1]. */
        for (r = 0; r < n_regs; r++) {
            Py_ssize_t first = r ? bucket[r - 1] : 0;
            if (bucket[r] > first)
                triage_register(&j, &s, r, order + first, bucket[r] - first);
        }
    }
    Py_END_ALLOW_THREADS
    ret = Py_None;
    Py_INCREF(ret);

cleanup:
    PyMem_Free(scratch);
    PyMem_Free(order);
    PyMem_Free(bucket);
    release_all(views, NT);
    return ret;
}

/* -- inject(): each fault from its seed to its retirement ------------------
 *
 * repro.faults.injector.InjectionEngine (the specification) simulates
 * one triaged fault at a time.  inject() runs a slice of a shard's
 * triage queue the same way, each fault on one lane (a contiguous
 * state column and memory image) from its seed to its retirement:
 *
 *   seed      the golden state row at `start`, with a soft fault's bit
 *             flipped, and the memory image at `start`: the checkpoint
 *             at or before it, then the write-log entries past the
 *             checkpoint that commit before `start`, in log order, so
 *             the last write of a word wins (GoldenTrace.memory_rows_at
 *             rebuilds a row the same way);
 *   a cycle   pre-step, in the scalar engine's order: the horizon, the
 *             check, the stuck-at force, the golden port compare, the
 *             step.  A soft lane is checked every `stride` cycles from
 *             start + 1; a stuck-at lane CONVERGE_CHECK_START cycles
 *             in, the interval doubling after every check its state
 *             fails.  A check compares the unforced state, as the
 *             scalar engine's post-step snapshot is unforced;
 *   converged a soft lane equal to golden at a check is masked.  A
 *             stuck-at lane is triaged again as if injected at its
 *             current cycle (triage_register, with the call's prune and
 *             max_observe): with no next activation, or one at or past
 *             the lane's end, it is masked; with one at the current
 *             cycle it checks again chk_iv cycles later; with a later
 *             one its state and memory are reseeded there;
 *   retired   at the horizon (masked), or at the first port divergence
 *             (detected; the scalar step that showed the tuple counts
 *             as one more simulated cycle).
 *
 * Per fault it writes the detect cycle (-1 when masked), the 18-word
 * port tuple at detection (left as it was when masked) and the
 * simulated span (t - start, plus one on detection: what an
 * equivalence hit replays), and it returns the cycles simulated, which
 * the caller charges to PruneStats.sim_cycles.  The faults run with
 * the GIL released. */

/* repro.faults.injector._CONVERGE_CHECK_START */
#define CONVERGE_CHECK_START 8

/* Everything one inject() call's faults share, borrowed from the
 * caller's buffers for the call's lifetime. */
typedef struct {
    Ctx *x;                         /* one lane: B == 1 */
    const u32 *sm, *pm;
    Py_ssize_t sm_cols, n_regs;
    const u32 *images;              /* (n_images, mem_words) checkpoints */
    const int64_t *log_cycles, *log_words;
    const u32 *log_values;
    Py_ssize_t n_log, every;        /* log entries, entries per checkpoint */
    const int64_t *reg, *bit, *start, *end;
    const uint8_t *kind;
    Py_ssize_t stride;
    const TriageJob *triage;        /* sm, masks, prune, max_observe */
    TriageScratch *scratch;
} InjectJob;

/* The lane's state and memory at the start of `cycle`. */
static void seed_lane(const InjectJob *d, int64_t cycle)
{
    Ctx *x = d->x;
    Py_ssize_t lo = 0, hi = d->n_log, e;
    memcpy(x->S, d->sm + (size_t)cycle * (size_t)d->sm_cols,
           (size_t)d->n_regs * sizeof(u32));
    x->S[d->n_regs] = x->S[d->n_regs + 1] = 0;   /* the zero and sink rows */
    while (lo < hi) {               /* entries committed before `cycle` */
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (d->log_cycles[mid] < cycle)
            lo = mid + 1;
        else
            hi = mid;
    }
    memcpy(x->M, d->images + (size_t)(lo / d->every) * (size_t)x->mem_words,
           (size_t)x->mem_words * sizeof(u32));
    for (e = lo - lo % d->every; e < lo; e++)
        x->M[d->log_words[e]] = d->log_values[e];
}

/* triage_fault's start for stuck-at fault f injected at `cycle`: the
 * bit's next (observed, when pruning) activation, or -1 for none. */
static int64_t next_activation(const InjectJob *d, Py_ssize_t f,
                               int64_t cycle)
{
    TriageJob j = *d->triage;
    static const int64_t first = 0;
    uint8_t decision;
    int64_t act, start, end;
    j.reg = d->reg + f;
    j.bit = d->bit + f;
    j.kind = d->kind + f;
    j.cycle = &cycle;
    j.decision = &decision;
    j.act = &act;
    j.start = &start;
    j.end = &end;
    triage_register(&j, d->scratch, (Py_ssize_t)d->reg[f], &first, 1);
    return start;
}

/* Fault f from its seed to its retirement; returns the cycles it
 * simulated. */
static Py_ssize_t inject_fault(const InjectJob *d, Py_ssize_t f,
                               int64_t *detect, u32 *port, int64_t *span)
{
    Ctx *x = d->x;
    const RowMap *r = &x->r;
    u32 *S = x->S;
    const int hard = d->kind[f] != KIND_SOFT;
    const u32 mask = (u32)1 << d->bit[f];
    const int64_t start = d->start[f], end = d->end[f];
    /* The force a stuck-at re-asserts every cycle; a soft lane forces
     * the sink row. */
    u32 *forced = S + (hard ? d->reg[f] : d->n_regs + 1);
    const u32 force_and = d->kind[f] == KIND_STUCK0 ? ~mask : 0xFFFFFFFFu;
    const u32 force_or = d->kind[f] == KIND_STUCK1 ? mask : 0;
    int64_t t = start;
    int64_t chk_iv = hard ? CONVERGE_CHECK_START : d->stride;
    int64_t next_chk = start + (hard ? CONVERGE_CHECK_START : 1);
    Py_ssize_t ran = 0, k;

    seed_lane(d, start);
    if (!hard)
        S[d->reg[f]] ^= mask;
    for (;;) {
        const u32 *g;
        int diverged = 0;
        while (t < end) {
            if (t == next_chk) {
                g = d->sm + (size_t)t * (size_t)d->sm_cols;
                if (memcmp(S, g, (size_t)d->n_regs * sizeof(u32)) == 0)
                    break;
                if (hard) {
                    chk_iv *= 2;
                    next_chk = t + chk_iv;
                } else {
                    next_chk += d->stride;
                }
            }
            *forced = (*forced & force_and) | force_or;
            g = d->pm + (size_t)t * 18;
            for (k = 0; k < 16 && S[x->port_rows[k]] == g[k]; k++)
                ;
            diverged = k < 16
                || ((S[r->status] & 1) | (S[r->halted] << 1)) != g[16]
                || (S[r->br_taken] | (S[r->br_valid] << 1)) != g[17];
            if (diverged)
                break;
            step_lane(x, 0);
            t++;
            ran++;
        }
        if (diverged) {
            for (k = 0; k < 16; k++)
                port[k] = S[x->port_rows[k]];
            port[16] = (S[r->status] & 1) | (S[r->halted] << 1);
            port[17] = S[r->br_taken] | (S[r->br_valid] << 1);
            *detect = t;
            *span = t - start + 1;
            return ran + 1;
        }
        if (t < end && hard) {      /* equal to golden at a check */
            const int64_t t_next = next_activation(d, f, t);
            if (t_next >= 0 && t_next < end) {
                if (t_next > t) {
                    seed_lane(d, t_next);
                    t = t_next;
                    chk_iv = CONVERGE_CHECK_START;
                }
                next_chk = t + chk_iv;
                continue;
            }
        }
        *detect = -1;
        *span = t - start;
        return ran;
    }
}

static PyObject *py_inject(PyObject *self, PyObject *args)
{
    enum { I_SM, I_PM, I_STIM, I_IMG, I_LCYC, I_LWORD, I_LVAL, I_RD, I_WR,
           I_FULL, I_REG, I_BIT, I_KIND, I_START, I_END, I_DET, I_PORTS,
           I_SPAN, NI };
    static const BufSpec specs[NI] = {
        {"sm", 0, 4},          {"pm", 0, 4},          {"stim", 0, 4},
        {"images", 0, 4},      {"log_cycles", 0, 8},  {"log_words", 0, 8},
        {"log_values", 0, 4},  {"read_mask", 0, 8},   {"write_mask", 0, 8},
        {"full_write", 0, 1},  {"reg", 0, 8},         {"bit", 0, 8},
        {"kind", 0, 1},        {"start", 0, 8},       {"end", 0, 8},
        {"detect", 1, 8},      {"ports", 1, 4},       {"span", 1, 8},
    };
    PyObject *objs[NI], *tables;
    Py_buffer views[NI], tv[13];
    Py_ssize_t k, every, stride, n_faults, sim_cycles = 0;
    int prune, tables_held = 0;
    long long max_observe;
    void *lane = NULL, *scratch = NULL;
    PyObject *ret = NULL;
    Ctx ctx;
    Ctx *x = &ctx;
    (void)self;

    if (!PyArg_ParseTuple(args, "OOOO(nOOOO)OOOOOOOOOOOnpL", &objs[I_SM],
                          &objs[I_PM], &objs[I_STIM], &tables, &every,
                          &objs[I_IMG], &objs[I_LCYC], &objs[I_LWORD],
                          &objs[I_LVAL], &objs[I_RD], &objs[I_WR],
                          &objs[I_FULL], &objs[I_REG], &objs[I_BIT],
                          &objs[I_KIND], &objs[I_START], &objs[I_END],
                          &objs[I_DET], &objs[I_PORTS], &objs[I_SPAN],
                          &stride, &prune, &max_observe))
        return NULL;
    for (k = 0; k < NI; k++)
        views[k].obj = NULL;
    for (k = 0; k < NI; k++) {
        if (get_buf(objs[k], &views[k], &specs[k]) < 0)
            goto cleanup;
    }
    tables_held = 1;
    if (load_tables(tables, tv, x) < 0)
        goto cleanup;
    if (views[I_SM].ndim != 2 || views[I_PM].ndim != 2
            || views[I_IMG].ndim != 2 || views[I_RD].ndim != 2
            || views[I_WR].ndim != 2 || views[I_PORTS].ndim != 2) {
        PyErr_SetString(PyExc_ValueError,
                        "sm, pm, images, the masks and ports must be 2-D");
        goto cleanup;
    }
    const Py_ssize_t n = views[I_SM].shape[0];
    const Py_ssize_t n_regs = (Py_ssize_t)x->c.n_regs;
    const Py_ssize_t mem_words = views[I_IMG].shape[1];
    const Py_ssize_t n_log = views[I_LCYC].len / 8;
    const Py_ssize_t mask_words = views[I_RD].shape[1];
    n_faults = views[I_REG].len / 8;
    if (n < 1 || n_regs < 1 || views[I_SM].shape[1] < n_regs
            || views[I_PM].shape[0] != n || views[I_PM].shape[1] != 18
            || views[I_RD].shape[0] != n || views[I_WR].shape[0] != n
            || views[I_WR].shape[1] != mask_words
            || n_regs > 64 * mask_words || views[I_FULL].len != n_regs
            || views[I_STIM].len < 4 || mem_words < 1 || every < 1
            || views[I_IMG].shape[0] <= n_log / every
            || views[I_LWORD].len / 8 != n_log
            || views[I_LVAL].len / 4 != n_log
            || views[I_BIT].len / 8 != n_faults
            || views[I_KIND].len != n_faults
            || views[I_START].len / 8 != n_faults
            || views[I_END].len / 8 != n_faults
            || views[I_DET].len / 8 != n_faults
            || views[I_PORTS].shape[0] != n_faults
            || views[I_PORTS].shape[1] != 18
            || views[I_SPAN].len / 8 != n_faults) {
        PyErr_SetString(PyExc_ValueError, "inconsistent inject shapes");
        goto cleanup;
    }
    if (stride < 1 || max_observe < -1 || max_observe == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "stride must be >= 1 and max_observe -1 (no cap) "
                        "or >= 1");
        goto cleanup;
    }
    const int64_t *reg = (const int64_t *)views[I_REG].buf;
    const int64_t *bit = (const int64_t *)views[I_BIT].buf;
    const uint8_t *kind = (const uint8_t *)views[I_KIND].buf;
    const int64_t *start = (const int64_t *)views[I_START].buf;
    const int64_t *end = (const int64_t *)views[I_END].buf;
    for (k = 0; k < n_faults; k++) {
        if (reg[k] < 0 || reg[k] >= n_regs || bit[k] < 0 || bit[k] > 31
                || kind[k] > KIND_STUCK1) {
            PyErr_Format(PyExc_ValueError,
                         "fault %zd: register row, bit or kind out of range",
                         k);
            goto cleanup;
        }
        if (start[k] < 0 || start[k] >= end[k] || end[k] > n) {
            PyErr_Format(PyExc_ValueError,
                         "fault %zd: window [%lld, %lld) outside the golden "
                         "trace's %zd cycles", k, (long long)start[k],
                         (long long)end[k], n);
            goto cleanup;
        }
    }
    const int64_t *log_words = (const int64_t *)views[I_LWORD].buf;
    for (k = 0; k < n_log; k++) {
        if (log_words[k] < 0 || log_words[k] >= mem_words) {
            PyErr_Format(PyExc_ValueError,
                         "write-log entry %zd: word outside memory", k);
            goto cleanup;
        }
    }

    lane = PyMem_Malloc((size_t)(n_regs + 2 + mem_words) * sizeof(u32));
    scratch = PyMem_Malloc(TRIAGE_SCRATCH_BYTES(n));
    if (lane == NULL || scratch == NULL) {
        PyErr_NoMemory();
        goto cleanup;
    }
    x->S = (u32 *)lane;
    x->n_rows = n_regs + 2;
    x->B = 1;
    x->M = x->S + n_regs + 2;
    x->mem_words = mem_words;
    x->stim = (const u32 *)views[I_STIM].buf;
    x->stim_len = views[I_STIM].len / 4;

    {
        TriageScratch s;
        TriageJob tj;
        triage_scratch(&s, scratch, n);
        memset(&tj, 0, sizeof(tj));
        tj.sm = (const u32 *)views[I_SM].buf;
        tj.rd = (const uint64_t *)views[I_RD].buf;
        tj.wr = (const uint64_t *)views[I_WR].buf;
        tj.sm_cols = views[I_SM].shape[1];
        tj.n = n;
        tj.mask_words = mask_words;
        tj.full_write = (const uint8_t *)views[I_FULL].buf;
        tj.prune = prune;
        tj.max_observe = (int64_t)max_observe;
        InjectJob job = {
            x, tj.sm, (const u32 *)views[I_PM].buf, tj.sm_cols, n_regs,
            (const u32 *)views[I_IMG].buf,
            (const int64_t *)views[I_LCYC].buf, log_words,
            (const u32 *)views[I_LVAL].buf, n_log, every,
            reg, bit, start, end, kind, stride, &tj, &s,
        };
        int64_t *detect = (int64_t *)views[I_DET].buf;
        u32 *ports = (u32 *)views[I_PORTS].buf;
        int64_t *span = (int64_t *)views[I_SPAN].buf;

        Py_BEGIN_ALLOW_THREADS
        for (k = 0; k < n_faults; k++)
            sim_cycles += inject_fault(&job, k, &detect[k], ports + 18 * k,
                                       &span[k]);
        Py_END_ALLOW_THREADS
    }
    ret = PyLong_FromSsize_t(sim_cycles);

cleanup:
    PyMem_Free(scratch);
    PyMem_Free(lane);
    if (tables_held)
        release_all(tv, 13);
    release_all(views, NI);
    return ret;
}

/* -- schedule(): the campaign's fault cycles, bit-identical to numpy ------- */

/* repro.faults.campaign.schedule_faults (the specification) draws the
 * fault cycles of one (benchmark b, flop f) cell from
 *     default_rng(SeedSequence(seed, spawn_key=(stream, b, f)))
 * as choice(n_intervals, k, replace=False), then integers(lengths) of
 * the chosen intervals, for the soft faults and then for each stuck-at
 * polarity.  schedule() replays those draws with numpy's algorithms:
 *   SeedSequence  the pool mix of the entropy words and
 *                 generate_state(4, uint64);
 *   PCG64         seeding, XSL-RR output, 32-bit draws served from the
 *                 halves of one 64-bit output, low half first;
 *   choice        Floyd's algorithm, then a Fisher-Yates shuffle (the
 *                 path numpy takes for populations of at most 10,000);
 *   integers      one bounded draw per element;
 * every bounded draw by Lemire's 32-bit method.  It needs 128-bit
 * integers; without them the module has no schedule() and the caller
 * schedules with numpy. */
#if defined(__SIZEOF_INT128__)
#define HAVE_SCHEDULE 1

typedef unsigned __int128 u128;

#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u
/* numpy's choice() switches from Floyd to a tail shuffle above this. */
#define SCHED_MAX_INTERVALS 10000
#define PCG_MULT ((((u128)2549297995355413924ULL) << 64) \
                  | 4865540595714422341ULL)

typedef struct {
    u32 pool[SS_POOL];
    u32 hash;
} SeedPool;

static u32 ss_hashmix(u32 value, u32 *hash)
{
    value ^= *hash;
    *hash *= SS_MULT_A;
    value *= *hash;
    return value ^ (value >> 16);
}

static u32 ss_mix(u32 x, u32 y)
{
    u32 r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ (r >> 16);
}

/* Mix one entropy word that lies past the first SS_POOL. */
static void ss_absorb(SeedPool *s, u32 word)
{
    int d;
    for (d = 0; d < SS_POOL; d++)
        s->pool[d] = ss_mix(s->pool[d], ss_hashmix(word, &s->hash));
}

/* Mix in the run entropy (the seed's words, low first).  numpy pads it
 * with zeros to the pool size when a spawn key follows, so the spawn
 * words always lie past the pool and can be absorbed per cell. */
static void ss_seed(SeedPool *s, const u32 *words, Py_ssize_t n)
{
    int i, src, dst;
    s->hash = SS_INIT_A;
    for (i = 0; i < SS_POOL; i++)
        s->pool[i] = ss_hashmix(i < n ? words[i] : 0, &s->hash);
    for (src = 0; src < SS_POOL; src++)
        for (dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                s->pool[dst] = ss_mix(s->pool[dst],
                                      ss_hashmix(s->pool[src], &s->hash));
    for (i = SS_POOL; i < n; i++)
        ss_absorb(s, words[i]);
}

/* One spawn-key integer: its 32-bit words, low first; 0 is one word. */
static void ss_absorb_int(SeedPool *s, uint64_t v)
{
    do {
        ss_absorb(s, (u32)v);
        v >>= 32;
    } while (v);
}

typedef struct {
    u128 state, inc;
    int has32;
    u32 buf32;
} Pcg;

/* SeedSequence.generate_state(4, uint64) seeding PCG64. */
static void pcg_seed(Pcg *g, const SeedPool *s)
{
    u32 w[2 * SS_POOL], hash = SS_INIT_B;
    uint64_t v[SS_POOL];
    int i;
    for (i = 0; i < 2 * SS_POOL; i++) {
        u32 x = s->pool[i % SS_POOL] ^ hash;
        hash *= SS_MULT_B;
        x *= hash;
        w[i] = x ^ (x >> 16);
    }
    for (i = 0; i < SS_POOL; i++)
        v[i] = (uint64_t)w[2 * i] | ((uint64_t)w[2 * i + 1] << 32);
    g->inc = ((((u128)v[2]) << 64 | v[3]) << 1) | 1u;
    g->state = g->inc;                      /* 0 * mult + inc */
    g->state += ((u128)v[0]) << 64 | v[1];
    g->state = g->state * PCG_MULT + g->inc;
    g->has32 = 0;
    g->buf32 = 0;
}

static u32 pcg_next32(Pcg *g)
{
    uint64_t out;
    unsigned rot;
    if (g->has32) {
        g->has32 = 0;
        return g->buf32;
    }
    g->state = g->state * PCG_MULT + g->inc;
    out = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    rot = (unsigned)(g->state >> 122);
    out = (out >> rot) | (out << ((-rot) & 63));
    g->has32 = 1;
    g->buf32 = (u32)(out >> 32);
    return (u32)out;
}

/* Uniform on [0, hi], hi < 2^32: numpy's random_bounded_uint64. */
static uint64_t bounded(Pcg *g, uint64_t hi)
{
    u32 excl, leftover;
    uint64_t m;
    if (hi == 0)
        return 0;
    if (hi == 0xFFFFFFFFu)
        return pcg_next32(g);
    excl = (u32)hi + 1;
    m = (uint64_t)pcg_next32(g) * excl;
    leftover = (u32)m;
    if (leftover < excl) {
        u32 threshold = (UINT32_MAX - (u32)hi) % excl;
        while (leftover < threshold) {
            m = (uint64_t)pcg_next32(g) * excl;
            leftover = (u32)m;
        }
    }
    return m >> 32;
}

/* `count` fault cycles in distinct intervals: choice() into out, then
 * a uniform cycle within each chosen interval.  `seen` is all zero on
 * entry and on return. */
static void draw_cycles(Pcg *g, int64_t n_intervals, int64_t base,
                        int64_t extra, int64_t count, int64_t *out,
                        uint8_t *seen)
{
    int64_t j, k;
    for (j = n_intervals - count; j < n_intervals; j++) {
        int64_t val = (int64_t)bounded(g, (uint64_t)j);
        if (seen[val])
            val = j;  /* every earlier pick is below j */
        seen[val] = 1;
        out[j - n_intervals + count] = val;
    }
    for (j = count - 1; j >= 1; j--) {
        int64_t other = (int64_t)bounded(g, (uint64_t)j), tmp = out[j];
        out[j] = out[other];
        out[other] = tmp;
    }
    for (k = 0; k < count; k++)
        seen[out[k]] = 0;
    for (k = 0; k < count; k++) {
        int64_t iv = out[k], len = iv < extra ? base + 1 : base;
        out[k] = iv * base + (iv < extra ? iv : extra)
                 + (int64_t)bounded(g, (uint64_t)(len - 1));
    }
}

static PyObject *py_schedule(PyObject *self, PyObject *args)
{
    PyObject *out_obj, *seed_obj;
    Py_ssize_t stream, bench, flop_base, n_intervals, n_soft, n_hard;
    long long n_cycles;
    Py_buffer ov = {0}, sv = {0};
    static const BufSpec out_spec = {"out", 1, 8}, seed_spec = {"seed", 0, 4};
    uint8_t *seen;
    int64_t base, extra, per_flop, n_flops, k;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOnnnLnnn", &out_obj, &seed_obj, &stream,
                          &bench, &flop_base, &n_cycles, &n_intervals,
                          &n_soft, &n_hard))
        return NULL;
    if (stream < 0 || bench < 0 || flop_base < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "spawn-key entries must be non-negative");
        return NULL;
    }
    if (n_intervals < 1 || n_intervals > SCHED_MAX_INTERVALS
            || n_intervals > n_cycles) {
        PyErr_Format(PyExc_ValueError,
                     "n_intervals must be in [1, min(%d, n_cycles)], got %zd",
                     SCHED_MAX_INTERVALS, n_intervals);
        return NULL;
    }
    base = n_cycles / n_intervals;
    extra = n_cycles % n_intervals;
    if (base + (extra > 0) > ((int64_t)1 << 32)) {
        PyErr_SetString(PyExc_ValueError,
                        "intervals longer than 2**32 cycles");
        return NULL;
    }
    if (n_soft < 0 || n_soft > n_intervals || n_hard < 0
            || n_hard > n_intervals) {
        PyErr_SetString(PyExc_ValueError,
                        "fault counts must be in [0, n_intervals]");
        return NULL;
    }
    if (get_buf(out_obj, &ov, &out_spec) < 0)
        return NULL;
    if (get_buf(seed_obj, &sv, &seed_spec) < 0) {
        PyBuffer_Release(&ov);
        return NULL;
    }
    per_flop = n_soft + 2 * n_hard;
    n_flops = per_flop ? (ov.len / 8) / per_flop : 0;
    if (n_flops * per_flop != ov.len / 8) {
        PyErr_SetString(PyExc_ValueError,
                        "out must hold n_soft + 2 * n_hard cycles per flop");
        goto fail;
    }
    seen = PyMem_Calloc((size_t)n_intervals, 1);
    if (seen == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    Py_BEGIN_ALLOW_THREADS
    {
        SeedPool root;
        ss_seed(&root, (const u32 *)sv.buf, sv.len / 4);
        for (k = 0; k < n_flops; k++) {
            SeedPool cell = root;
            Pcg g;
            int64_t *row = (int64_t *)ov.buf + k * per_flop;
            ss_absorb_int(&cell, (uint64_t)stream);
            ss_absorb_int(&cell, (uint64_t)bench);
            ss_absorb_int(&cell, (uint64_t)flop_base + (uint64_t)k);
            pcg_seed(&g, &cell);
            draw_cycles(&g, n_intervals, base, extra, n_soft, row, seen);
            draw_cycles(&g, n_intervals, base, extra, n_hard, row + n_soft,
                        seen);
            draw_cycles(&g, n_intervals, base, extra, n_hard,
                        row + n_soft + n_hard, seen);
        }
    }
    Py_END_ALLOW_THREADS
    PyMem_Free(seen);
    PyBuffer_Release(&sv);
    PyBuffer_Release(&ov);
    Py_RETURN_NONE;

fail:
    PyBuffer_Release(&sv);
    PyBuffer_Release(&ov);
    return NULL;
}
#endif

static PyMethodDef methods[] = {
    {"step", py_step, METH_VARARGS,
     "step(S, M, stim, tables, n): advance lanes 0..n-1 one cycle."},
    {"inject", py_inject, METH_VARARGS,
     "inject(sm, pm, stim, tables, memory, read_mask, write_mask, "
     "full_write, reg, bit, kind, start, end, detect, ports, span, stride, "
     "prune, max_observe) -> sim_cycles: run each fault from its seed at "
     "start to its retirement as repro.faults.injector.InjectionEngine "
     "does, with the GIL released; memory is GoldenTrace._memory_index(), "
     "and each fault's detect cycle (-1 when masked), port tuple at "
     "detection and simulated span are written to detect, ports and span."},
    {"golden", py_golden, METH_VARARGS,
     "golden(S, M, stim, tables, max_cycles) -> None or (n_cycles, states, "
     "ports, reads, writes, log): run lane 0 of S and M to HALT, recording "
     "what repro.faults.golden.GoldenTrace records with Cpu.step: the "
     "state and port rows, each cycle's register read and write masks, "
     "and the memory write log; None when it does not halt within "
     "max_cycles."},
    {"triage", py_triage, METH_VARARGS,
     "triage(sm, read_mask, write_mask, full_write, reg, bit, kind, cycle, "
     "decision, act, start, end, prune, max_observe): write each fault's "
     "triage decision (0 out of range, 1 soft-pruned, 2 never activated, "
     "3 hard-pruned, 4 simulate), activation cycle and window [start, end) "
     "(-1 where undefined), exactly as repro.faults.injector.triage_fault "
     "decides them; kind is 0 soft, 1 stuck-at-0, 2 stuck-at-1, and "
     "max_observe is -1 for no cap."},
#ifdef HAVE_SCHEDULE
    {"schedule", py_schedule, METH_VARARGS,
     "schedule(out, seed, stream, bench, flop_base, n_cycles, n_intervals, "
     "n_soft, n_hard): write the fault cycles of flops flop_base, "
     "flop_base+1, ... into the int64 array out, n_soft + 2 * n_hard per "
     "flop in schedule_faults order, drawn exactly as numpy draws them "
     "from SeedSequence(seed, spawn_key=(stream, bench, flop)); seed is "
     "the seed's 32-bit words as a uint32 array, low word first."},
#endif
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_cstep",
    "Compiled fused batch-step kernel (see repro.faults.batch).",
    -1, methods,
};

PyMODINIT_FUNC PyInit__cstep(void)
{
    return PyModule_Create(&moduledef);
}
