/* Compiled fused batch-step kernel for the SoA fault-injection engine.
 *
 * `drive()` executes the batch engine's hot loop — stuck-at force,
 * golden port compare, full state step, and the routine
 * masking/re-convergence check bookkeeping — in plain C, fusing as
 * many cycles per call as possible and returning to Python only for
 * the rare-path events (lane retirement, equivalence-class
 * resolution, stuck-at fast-forward, divergence record construction),
 * which repro/faults/batch.py handles.  `step()` advances lanes one
 * cycle with no driver logic, so tests can compare the C state
 * transition against the specification.  `schedule()` draws a shard's
 * fault cycles exactly as numpy draws them in
 * repro.faults.campaign.schedule_faults (see its section below).
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
 *   t/end/next_chk/chk_iv  int64 (B,), per-lane driver bookkeeping
 *   is_hard  uint8/bool (B,)
 *   force_row int64 (B,), force_and/force_or uint32 (B,)
 *   tables   13-tuple, see TABLE_SPECS / repro.faults.batch._cext_tables
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>

typedef uint32_t u32;

/* Row-index map: filled by memcpy from tables[0] (int64[68]).  Field
 * order here MUST match _ROW_ORDER in repro/faults/batch.py. */
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
 * order MUST match _CONST_ORDER in repro/faults/batch.py. */
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

/* One lane, one cycle: `Cpu.step` on one SoA column. */
static void step_lane(Ctx *x, Py_ssize_t i)
{
    const RowMap *r = &x->r;
    const Consts *c = &x->c;
    u32 *M = x->M + (size_t)i * (size_t)x->mem_words;
    const u32 mem_words = (u32)x->mem_words;

    /* ---------------- MW stage ---------------- */
    u32 lsu_valid = S_(r->lsu_valid, i);
    u32 sb_valid = S_(r->sb_valid, i);
    u32 mw_valid = S_(r->mw_valid, i);
    u32 lsu_op = S_(r->lsu_op, i);
    u32 lsu_addr = S_(r->lsu_addr, i);
    u32 sb_addr = S_(r->sb_addr, i);
    u32 sb_data = S_(r->sb_data, i);
    u32 sb_op = S_(r->sb_op, i);

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
    }

    u32 load_data = 0;
    if (is_load) {
        u32 word = M[(lsu_addr >> 2) % mem_words];
        u32 shift = (lsu_addr & 3) * 8;
        load_data = is_ldb ? (word >> shift) & 0xFF : word;
    }
    if (is_in) {
        u32 cursor = S_(r->io_in_idx, i);
        u32 val = x->stim[cursor % (u32)x->stim_len];
        load_data = val;
        S_(r->io_in, i) = val;
        S_(r->io_in_idx, i) = (cursor + 1) & 0xFFFF;
    }
    if (is_out) {
        S_(r->io_out, i) = S_(r->lsu_wdata, i);
        S_(r->io_out_v, i) ^= 1u;
    }

    if (drain_load || (sb_valid && !lsu_valid))
        S_(r->sb_valid, i) = 0;
    if (is_store) {
        S_(r->sb_addr, i) = lsu_addr;
        S_(r->sb_data, i) = S_(r->lsu_wdata, i);
        S_(r->sb_op, i) = (u32)is_stb;
        S_(r->sb_valid, i) = 1;
    }

    int d_read = is_load, d_write = drain;
    int d_any = d_read || d_write;
    u32 prim_addr = d_read ? lsu_addr : sb_addr;
    int prim_byte = d_read ? is_ldb : (sb_op != 0);
    if (d_any)
        S_(r->dmc_addr, i) = prim_addr;
    if (d_write)
        S_(r->dmc_wdata, i) = sb_data;
    if (d_read)
        S_(r->dmc_rdata, i) = load_data;
    S_(r->dmc_ctrl, i) = d_any ? ((u32)d_read | ((u32)d_write << 1) | 8) : 0;
    S_(r->dmc_strb, i) =
        d_any ? (prim_byte ? (1u << (prim_addr & 3)) : 0xFu) : 0;

    /* Writeback before DX reads the file (subsumes the bypass net). */
    u32 wb_value = S_(r->mw_isload, i) ? load_data : S_(r->mw_val, i);
    if (mw_valid && S_(r->mw_wen, i))
        S_(x->rf_write[S_(r->mw_rd, i) & 0xF], i) = wb_value;
    if (mw_valid) {
        S_(r->ret_pc, i) = S_(r->mw_pc, i);
        S_(r->ret_val, i) = wb_value;
        S_(r->ret_rd, i) = S_(r->mw_rd, i);
    }
    S_(r->ret_valid, i) = mw_valid ? 1 : 0;

    /* ---------------- DX stage ---------------- */
    u32 if_valid_raw = S_(r->if_valid, i);
    int if_valid = if_valid_raw != 0;
    u32 if_pc = S_(r->if_pc, i);
    u32 word = S_(r->if_ir, i);
    u32 opnum = (word >> 26) & 0x3F;
    int64_t cls = x->opc_cls[opnum];
    u32 seq_next = if_pc + 4;
    u32 fetched_next = S_(r->if_pred, i) ? S_(r->if_ptgt, i) : seq_next;

    int irq = ((S_(r->irq_pending, i) & S_(r->irq_mask, i)) != 0)
              && ((S_(r->status, i) & 1) == 0);
    u32 ctrl = S_(r->dbg_ctrl, i);
    int bk = !irq && ((ctrl & 3) != 0)
             && ((((ctrl & 1) != 0) && if_pc == S_(r->dbg_bkpt0, i))
                 || (((ctrl & 2) != 0) && if_pc == S_(r->dbg_bkpt1, i)));
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
    u32 ra_val = S_(x->rf_read[ra_f], i);
    u32 rb_val = S_(x->rf_read[rb_f], i);
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
        S_(r->flags, i) = (nf << 3) | (zf << 2) | (carry << 1) | ovf;
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_rd = rd_f;
        n_mw_val = res;
    } else if (dispatch && cls == c->cls_mul) {
        if (!S_(r->mul_pending, i)) {
            S_(r->mul_a, i) = ra_val;
            S_(r->mul_b, i) = rb_val;
            S_(r->mul_pending, i) = 1;
            stall = 1;
        } else {
            uint64_t prod =
                (uint64_t)S_(r->mul_a, i) * (uint64_t)S_(r->mul_b, i);
            u32 mres = (opnum == (u32)c->op_mul) ? (u32)prod
                                                 : (u32)(prod >> 32);
            S_(r->flags, i) =
                ((mres >> 31) & 1) << 3 | ((u32)(mres == 0)) << 2;
            S_(r->mul_pending, i) = 0;
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
        int watch = !misal && (ctrl & 4) != 0 && addr == S_(r->dbg_watch0, i);
        int mpu_hit = 0;
        u32 mc = S_(r->mpu_ctrl, i);
        if (mc != 0) {
            int reg;
            for (reg = 0; reg < 4; reg++) {
                if (((mc >> (2 * reg)) & 3) == 3
                    && S_(r->mpu_base0 + reg, i) <= addr
                    && addr < S_(r->mpu_limit0 + reg, i))
                    mpu_hit = 1;
            }
        }
        int mpu = !misal && !watch && mpu_hit;
        if (mpu)
            trap_code = (u32)c->cause_mpu;
        if (watch)
            trap_code = (u32)c->cause_watch;
        if (misal)
            trap_code = (u32)c->cause_misaligned;
        if (misal || watch || mpu) {
            trap = 1;
        } else {
            if (S_(r->status, i) & (u32)c->status_cnt_en)
                S_(r->cnt_mem, i) += 1;
            n_lsu_valid = 1;
            n_lsu_op = x->lsu_op_of[opnum];
            S_(r->lsu_addr, i) = addr;
            if (opnum == (u32)c->op_st || opnum == (u32)c->op_stb)
                S_(r->lsu_wdata, i) = rb_val;
            n_mw_valid = 1;
            if (opnum == (u32)c->op_ld || opnum == (u32)c->op_ldb) {
                n_mw_wen = 1;
                n_mw_isload = 1;
            }
            n_mw_rd = rd_f;
            n_mw_val = addr;
        }
    } else if (dispatch && cls == c->cls_branch) {
        if (S_(r->status, i) & (u32)c->status_cnt_en)
            S_(r->cnt_branch, i) += 1;
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
        S_(r->br_target, i) = target;
        S_(r->br_taken, i) = (u32)taken;
        n_br_valid = 1;
        if (taken) {
            actual_next = target;
            S_(r->btb_tag0 + bidx, i) = if_pc;
            S_(r->btb_tgt0 + bidx, i) = target;
            S_(r->btb_v, i) |= 1u << bidx;
        } else if (S_(r->if_pred, i)
                   && S_(r->btb_tag0 + bidx, i) == if_pc) {
            /* NOT4[bidx]: clears the way bit and any bits above 3. */
            S_(r->btb_v, i) &= (~(1u << bidx)) & 0xF;
        }
        n_mw_valid = 1;
    } else if (dispatch && (cls == c->cls_jal || cls == c->cls_jalr)) {
        u32 off32 = (word & 0x20000) ? ((word & 0x1FFFF) | 0xFFFE0000u)
                                     : (word & 0x3FFFF);
        u32 jt = (cls == c->cls_jal) ? seq_next + (off32 << 2)
                                     : (ra_val + imm32) & 0xFFFFFFFCu;
        actual_next = jt;
        S_(r->br_target, i) = jt;
        S_(r->br_taken, i) = 1;
        n_br_valid = 1;
        S_(r->btb_tag0 + bidx, i) = if_pc;
        S_(r->btb_tgt0 + bidx, i) = jt;
        S_(r->btb_v, i) |= 1u << bidx;
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_rd = rd_f;
        n_mw_val = seq_next;
    } else if (dispatch && cls == c->cls_in) {
        n_lsu_valid = 1;
        n_lsu_op = 5;
        S_(r->lsu_addr, i) = imm32;
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_isload = 1;
        n_mw_rd = rd_f;
    } else if (dispatch && cls == c->cls_out) {
        n_lsu_valid = 1;
        n_lsu_op = 6;
        S_(r->lsu_addr, i) = imm32;
        S_(r->lsu_wdata, i) = rb_val;
        n_mw_valid = 1;
    } else if (dispatch && cls == c->cls_csrr) {
        u32 csr_idx = word & 0x3FFF;
        n_mw_valid = 1;
        n_mw_wen = 1;
        n_mw_rd = rd_f;
        n_mw_val = S_(x->csr_read[csr_idx], i);
    } else if (dispatch && cls == c->cls_csrw) {
        u32 csr_idx = word & 0x3FFF;
        S_(x->csr_write[csr_idx], i) = rb_val & x->csr_wmask[csr_idx];
        n_mw_valid = 1;
    } else if (dispatch && cls == c->cls_nop) {
        n_mw_valid = 1;
    } else if (dispatch && cls == c->cls_halt) {
        halt_now = 1;
    }

    if (trap) {
        S_(r->cause, i) = trap_code;
        S_(r->epc, i) = if_pc;
        S_(r->status, i) |= 1;
        S_(r->sflags, i) = S_(r->flags, i);
    }

    int mispred = dispatch && !trap && !stall && !halt_now
                  && actual_next != fetched_next;
    int redirect = trap || mispred;
    u32 redirect_tgt = trap ? (u32)c->exc_vector : actual_next;

    /* DX -> MW latches (n_mw_pc reads mw_pc before the overwrite). */
    u32 n_mw_pc = if_valid ? if_pc : S_(r->mw_pc, i);
    S_(r->mw_valid, i) = stall ? 0 : n_mw_valid;
    if (!stall) {
        S_(r->mw_wen, i) = n_mw_wen;
        S_(r->mw_isload, i) = n_mw_isload;
        S_(r->mw_rd, i) = n_mw_rd;
        S_(r->mw_val, i) = n_mw_val;
        S_(r->mw_pc, i) = n_mw_pc;
    }
    S_(r->lsu_valid, i) = stall ? 0 : n_lsu_valid;
    S_(r->lsu_op, i) = stall ? 0 : n_lsu_op;
    S_(r->br_valid, i) = n_br_valid;

    /* ---------------- IF stages ---------------- */
    u32 fetch_addr = 0, fetch_word = 0;
    int fetched = 0;
    if (halt_now) {
        S_(r->halted, i) = 1;
        S_(r->if_valid, i) = 0;
        S_(r->imc_valid, i) = 0;
        S_(r->imc_pred, i) = 0;
    } else if (redirect) {
        S_(r->pc, i) = redirect_tgt;
        S_(r->if_valid, i) = 0;
        S_(r->if_pred, i) = 0;
        S_(r->imc_valid, i) = 0;
        S_(r->imc_pred, i) = 0;
    } else if (!stall) {
        u32 pc_old = S_(r->pc, i);
        /* IF2: prefetch buffer -> decode latch. */
        S_(r->if_ir, i) = S_(r->imc_data, i);
        S_(r->if_pc, i) = S_(r->imc_addr, i);
        S_(r->if_valid, i) = S_(r->imc_valid, i);
        S_(r->if_pred, i) = S_(r->imc_pred, i);
        S_(r->if_ptgt, i) = S_(r->imc_ptgt, i);
        /* IF1: fetch at pc with BTB next-fetch prediction. */
        u32 fw = M[(pc_old >> 2) % mem_words];
        S_(r->imc_addr, i) = pc_old;
        S_(r->imc_data, i) = fw;
        S_(r->imc_valid, i) = 1;
        u32 fb = (pc_old >> 2) & 3;
        if ((S_(r->btb_v, i) & (1u << fb)) != 0
            && S_(r->btb_tag0 + fb, i) == pc_old) {
            u32 tgt = S_(r->btb_tgt0 + fb, i);
            S_(r->pc, i) = tgt;
            S_(r->imc_pred, i) = 1;
            S_(r->imc_ptgt, i) = tgt;
        } else {
            S_(r->pc, i) = pc_old + 4;
            S_(r->imc_pred, i) = 0;
        }
        fetch_addr = pc_old;
        fetch_word = fw;
        fetched = 1;
    }

    /* ---------------- BIU external bus view ---------------- */
    if (d_any) {
        S_(r->bus_addr, i) = prim_addr;
        S_(r->bus_data, i) = d_read ? load_data : sb_data;
        S_(r->bus_ctrl, i) = d_write ? 3 : 2;
    } else if (fetched) {
        S_(r->bus_addr, i) = fetch_addr;
        S_(r->bus_data, i) = fetch_word;
        S_(r->bus_ctrl, i) = 1;
    } else {
        S_(r->bus_ctrl, i) = 0;
    }

    S_(r->cyc, i) += 1;
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
 * `views` for release by the caller. */
static int load_tables(PyObject *tables, Py_buffer views[13], Ctx *x)
{
    Py_ssize_t k;
    if (!PyTuple_Check(tables) || PyTuple_GET_SIZE(tables) != 13) {
        PyErr_SetString(PyExc_TypeError, "tables must be a 13-tuple");
        return -1;
    }
    for (k = 0; k < 13; k++)
        views[k].obj = NULL;
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

/* -- drive(...): the fused driver hot loop ---------------------------------
 *
 * Runs every lane independently to its own next rare-path event
 * (lanes outer, cycles inner — one lane's SoA column is ~100 cache
 * lines, so the inner loop runs entirely out of L1 regardless of the
 * batch width).  Per cycle and per lane the order matches the scalar
 * engine's loop: horizon check, masking/re-convergence check (with
 * the routine bookkeeping — stride bumps, stuck-at interval backoff —
 * handled inline), force re-assert, golden port compare, step.  A lane
 * parks, without stepping further, when
 *
 *   - it reaches its observation horizon (t >= end),
 *   - its state goes bit-identical to golden at a check cycle (soft
 *     retire, or stuck-at fast-forward — the pre-force compare, as in
 *     the scalar engine), or
 *   - its ports differ from golden at its current cycle; the lane is
 *     left pre-step with the force applied, so the Python detection
 *     path reads the port tuple the scalar `step()` would return.
 *
 * Returns (cycles_run, diverged): cycles_run is the total number of
 * lane-cycles actually stepped (the caller charges it verbatim to
 * PruneStats.sim_cycles), diverged is 1 iff at least one lane parked
 * on a port divergence.  On return *every* lane is parked at one of
 * the three events above; the Python driver re-derives which from the
 * lane state itself and retires, fast-forwards or records.
 *
 * Threading: drive() drops the GIL for the whole loop and, for
 * n_threads > 1, statically partitions the lane range into contiguous
 * slices run by a persistent process-wide pthread pool (the caller
 * runs slice 0).  Lanes never share mutable state — S/M columns, t,
 * check bookkeeping are all per-lane, and the golden matrices and
 * decode tables are read-only — so the slices need no locks; each
 * slice accumulates its own (cycles_run, diverged, error) triple and
 * the caller sums them after the join, which keeps the return value
 * (and every lane's parked state) bit-identical to the single-thread
 * loop for any thread count.
 */

/* Everything one drive call's slices share, all borrowed from the
 * caller's Py_buffer views (valid for the call's lifetime). */
typedef struct {
    Ctx *x;
    const u32 *sm, *pm;
    Py_ssize_t sm_cols, sm_cycles, pm_cols, pm_cycles;
    int64_t *t;
    const int64_t *end;
    int64_t *next_chk, *chk_iv;
    const uint8_t *is_hard;
    const int64_t *force_row;
    const u32 *force_and, *force_or;
    Py_ssize_t n, stride, max_cycles, n_regs;
} DriveJob;

typedef struct {
    Py_ssize_t cycles_run;
    int diverged;
    int error;                  /* 0 ok, else a DRIVE_ERR_* code */
} SliceResult;

enum { DRIVE_ERR_STATE = 1, DRIVE_ERR_PORTS = 2 };

static const char *const DRIVE_ERR_MSG[] = {
    NULL,
    "lane cycle outside golden trace",
    "lane cycle outside golden ports",
};

/* One lane to its next park event.  Pure function of per-lane state:
 * no Python API, no shared writes — callable with the GIL released
 * from any pool thread. */
static int drive_lane(const DriveJob *d, Py_ssize_t i,
                      Py_ssize_t *cycles_run, int *diverged)
{
    Ctx *x = d->x;
    const RowMap *r = &x->r;
    int64_t *t = d->t;
    Py_ssize_t ran = 0;

    while (ran < d->max_cycles) {
        /* Rare-path events: observation horizon, or state equal to
         * golden at a check cycle (retire / fast-forward).  Routine
         * check outcomes (state differs) are handled inline exactly
         * as the Python driver would: soft lanes re-check every
         * `stride` cycles, stuck-at lanes back off exponentially.
         * The checks run pre-force on purpose — the scalar engine's
         * snapshot at the same cycle is equally unforced. */
        if (t[i] >= d->end[i])
            break;
        if (t[i] == d->next_chk[i]) {
            if (t[i] < 0 || t[i] >= d->sm_cycles)
                return DRIVE_ERR_STATE;
            const u32 *g = d->sm + (size_t)t[i] * (size_t)d->sm_cols;
            int eq = 1;
            Py_ssize_t row;
            for (row = 0; row < d->n_regs; row++) {
                if (x->S[(size_t)row * (size_t)x->B + (size_t)i]
                    != g[row]) {
                    eq = 0;
                    break;
                }
            }
            if (eq)
                break;
            if (d->is_hard[i]) {
                d->chk_iv[i] *= 2;
                d->next_chk[i] = t[i] + d->chk_iv[i];
            } else {
                d->next_chk[i] += d->stride;
            }
        }

        /* Re-assert the stuck-at force (soft lanes force the sink
         * row). */
        u32 *fp = &x->S[(size_t)d->force_row[i] * (size_t)x->B
                        + (size_t)i];
        *fp = (*fp & d->force_and[i]) | d->force_or[i];

        /* Golden port compare at the lane's own cycle. */
        if (t[i] < 0 || t[i] >= d->pm_cycles)
            return DRIVE_ERR_PORTS;
        const u32 *g = d->pm + (size_t)t[i] * (size_t)d->pm_cols;
        int div = 0;
        Py_ssize_t pk;
        for (pk = 0; pk < 16; pk++) {
            if (x->S[(size_t)x->port_rows[pk] * (size_t)x->B
                     + (size_t)i] != g[pk]) {
                div = 1;
                break;
            }
        }
        if (!div) {
            u32 evs = (S_(r->status, i) & 1) | (S_(r->halted, i) << 1);
            u32 evb = S_(r->br_taken, i) | (S_(r->br_valid, i) << 1);
            if (evs != g[16] || evb != g[17])
                div = 1;
        }
        if (div) {
            *diverged = 1;
            break;
        }

        step_lane(x, i);
        t[i] += 1;
        ran++;
    }
    *cycles_run += ran;
    return 0;
}

/* Slice k of n_slices: the contiguous lane range
 * [k*floor + min(k, rem), ...) so widths differ by at most one lane
 * and each thread walks adjacent SoA columns (L1-friendly, no false
 * sharing except at the two slice-boundary cache lines). */
static void run_slice(const DriveJob *d, int k, int n_slices,
                      SliceResult *res)
{
    Py_ssize_t lo, hi, i;
    Py_ssize_t width = d->n / n_slices, rem = d->n % n_slices;
    lo = (Py_ssize_t)k * width + (k < rem ? k : rem);
    hi = lo + width + (k < rem ? 1 : 0);
    res->cycles_run = 0;
    res->diverged = 0;
    res->error = 0;
    for (i = lo; i < hi; i++) {
        int err = drive_lane(d, i, &res->cycles_run, &res->diverged);
        if (err) {
            res->error = err;
            return;
        }
    }
}

/* -- persistent worker-thread pool ------------------------------------------
 *
 * Created lazily on the first multithreaded drive() and reused for the
 * life of the process (workers are detached and park in
 * pthread_cond_wait between jobs, so an idle pool costs nothing).  One
 * job slot: the dispatching thread holds `busy` for the whole
 * dispatch/join, and a concurrent drive() that finds the pool busy
 * (several Python threads each running an engine) simply
 * runs its own call single-threaded inline — never blocked, never
 * deadlocked.  A fork invalidates inherited workers; the owner-pid
 * check reinitialises the (then thread-free) child's pool state from
 * scratch on its first drive.
 */
#define MAX_DRIVE_THREADS 64

static struct {
    pthread_mutex_t busy;       /* held across one job's dispatch+join */
    pthread_mutex_t lock;       /* protects everything below */
    pthread_cond_t work_cv;     /* a new job generation is available */
    pthread_cond_t done_cv;     /* pending hit zero */
    pid_t owner;                /* pid the pool threads belong to */
    int spawned;                /* worker threads created (caller excluded) */
    int ready;                  /* workers parked in their loop (<= spawned) */
    unsigned long gen;          /* job generation counter */
    int pending;                /* workers still to finish current gen */
    const DriveJob *job;
    int n_slices;
    int claimed;                /* slices 1..claimed handed out this gen */
    SliceResult results[MAX_DRIVE_THREADS];   /* slice k -> results[k-1] */
} pool = {
    PTHREAD_MUTEX_INITIALIZER, PTHREAD_MUTEX_INITIALIZER,
    PTHREAD_COND_INITIALIZER, PTHREAD_COND_INITIALIZER,
    0, 0, 0, 0, 0, NULL, 0, 0, {{0, 0, 0}},
};

static void *drive_worker(void *arg)
{
    unsigned long seen;
    (void)arg;
    pthread_mutex_lock(&pool.lock);
    /* A worker spawned while a job is in flight (ensure_pool growing
     * the pool for a different caller) must not join that job — its
     * dispatcher counted only the workers ready at dispatch time. */
    seen = pool.gen;
    pool.ready += 1;
    for (;;) {
        while (pool.gen == seen)
            pthread_cond_wait(&pool.work_cv, &pool.lock);
        seen = pool.gen;
        {
            /* Slices go to whichever ready workers wake first, not by
             * spawn order: a worker spawned but not yet parked at
             * dispatch is not counted in `ready`, and a slice tied to
             * its id would never run while the caller merged the
             * stale result left in its slot (after a fork, the
             * parent's). */
            const DriveJob *job = pool.job;
            int n_slices = pool.n_slices;
            int k = 0;
            if (job != NULL && pool.claimed + 1 < n_slices)
                k = ++pool.claimed;
            pthread_mutex_unlock(&pool.lock);
            if (k)
                run_slice(job, k, n_slices, &pool.results[k - 1]);
            pthread_mutex_lock(&pool.lock);
        }
        if (--pool.pending == 0)
            pthread_cond_signal(&pool.done_cv);
    }
    return NULL;                /* unreachable: workers live forever */
}

/* Grow the pool to `want` workers.  Called with the GIL held, so calls
 * are serialised; returns the worker count actually available (spawn
 * failure degrades the call, it never fails it). */
static int ensure_pool(int want)
{
    if (pool.owner != getpid()) {
        /* First use in this process — or a fork, which copies the
         * bookkeeping but none of the threads.  No pool thread of ours
         * can exist yet, so reinitialising the primitives is safe. */
        pthread_mutex_init(&pool.busy, NULL);
        pthread_mutex_init(&pool.lock, NULL);
        pthread_cond_init(&pool.work_cv, NULL);
        pthread_cond_init(&pool.done_cv, NULL);
        pool.spawned = 0;
        pool.ready = 0;
        pool.gen = 0;
        pool.pending = 0;
        pool.owner = getpid();
    }
    while (pool.spawned < want && pool.spawned < MAX_DRIVE_THREADS) {
        pthread_t tid;
        pthread_attr_t attr;
        if (pthread_attr_init(&attr) != 0)
            break;
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        if (pthread_create(&tid, &attr, drive_worker, NULL) != 0) {
            pthread_attr_destroy(&attr);
            break;              /* degrade to the threads we have */
        }
        pthread_attr_destroy(&attr);
        pool.spawned += 1;
    }
    return pool.spawned;
}

/* Run one job across at most want_slices slices (slice 0 always on
 * the calling thread), merging the per-slice triples.  The live slice
 * count is clamped, under the lock, to the workers actually parked in
 * their loop — a freshly spawned worker that hasn't reached its wait
 * yet must not be counted on to run a slice.  Every ready worker joins
 * the generation barrier, and each claims at most one slice, so the
 * n_slices - 1 <= ready slices are all run.
 * Called with the GIL released and pool.busy held. */
static void run_job(const DriveJob *job, int want_slices,
                    SliceResult *out)
{
    SliceResult mine;
    int n_slices, dispatched = 0, k;

    pthread_mutex_lock(&pool.lock);
    n_slices = pool.ready + 1;
    if (n_slices > want_slices)
        n_slices = want_slices;
    if (n_slices > 1) {
        pool.job = job;
        pool.n_slices = n_slices;
        pool.claimed = 0;
        pool.pending = pool.ready;
        pool.gen += 1;
        dispatched = 1;
        pthread_cond_broadcast(&pool.work_cv);
    }
    pthread_mutex_unlock(&pool.lock);

    run_slice(job, 0, n_slices, &mine);

    if (dispatched) {
        pthread_mutex_lock(&pool.lock);
        while (pool.pending != 0)
            pthread_cond_wait(&pool.done_cv, &pool.lock);
        pool.job = NULL;
        pthread_mutex_unlock(&pool.lock);
    }
    *out = mine;
    for (k = 1; k < n_slices; k++) {
        out->cycles_run += pool.results[k - 1].cycles_run;
        out->diverged |= pool.results[k - 1].diverged;
        if (out->error == 0)
            out->error = pool.results[k - 1].error;
    }
}

static PyObject *py_drive(PyObject *self, PyObject *args)
{
    PyObject *s_obj, *m_obj, *sm_obj, *pm_obj, *stim_obj;
    PyObject *t_obj, *end_obj, *chk_obj, *iv_obj, *hard_obj;
    PyObject *frow_obj, *fand_obj, *for_obj, *tables;
    Py_ssize_t n, stride, max_cycles, n_threads;

    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOOnnnn", &s_obj, &m_obj,
                          &sm_obj, &pm_obj, &stim_obj, &t_obj, &end_obj,
                          &chk_obj, &iv_obj, &hard_obj, &frow_obj,
                          &fand_obj, &for_obj, &tables, &n, &stride,
                          &max_cycles, &n_threads))
        return NULL;

    enum { B_S, B_M, B_SM, B_PM, B_STIM, B_T, B_END, B_CHK, B_IV,
           B_HARD, B_FROW, B_FAND, B_FOR, NBUF };
    static const BufSpec specs[NBUF] = {
        {"S", 1, 4},        {"M", 1, 4},         {"sm", 0, 4},
        {"pm", 0, 4},       {"stim", 0, 4},      {"t", 1, 8},
        {"end", 0, 8},      {"next_chk", 1, 8},  {"chk_iv", 1, 8},
        {"is_hard", 0, 1},  {"force_row", 0, 8}, {"force_and", 0, 4},
        {"force_or", 0, 4},
    };
    PyObject *objs[NBUF];
    objs[B_S] = s_obj; objs[B_M] = m_obj; objs[B_SM] = sm_obj;
    objs[B_PM] = pm_obj; objs[B_STIM] = stim_obj; objs[B_T] = t_obj;
    objs[B_END] = end_obj; objs[B_CHK] = chk_obj; objs[B_IV] = iv_obj;
    objs[B_HARD] = hard_obj; objs[B_FROW] = frow_obj;
    objs[B_FAND] = fand_obj; objs[B_FOR] = for_obj;

    Py_buffer views[NBUF], tv[13];
    Py_ssize_t k;
    PyObject *ret = NULL;
    int tables_held = 0;
    Ctx ctx;
    Ctx *x = &ctx;

    for (k = 0; k < NBUF; k++)
        views[k].obj = NULL;
    for (k = 0; k < NBUF; k++) {
        if (get_buf(objs[k], &views[k], &specs[k]) < 0)
            goto cleanup;
    }
    if (load_tables(tables, tv, x) < 0) {
        tables_held = 1;
        goto cleanup;
    }
    tables_held = 1;

    if (views[B_S].ndim != 2 || views[B_M].ndim != 2
        || views[B_SM].ndim != 2 || views[B_PM].ndim != 2) {
        PyErr_SetString(PyExc_ValueError, "S/M/sm/pm must be 2-D");
        goto cleanup;
    }
    x->S = (u32 *)views[B_S].buf;
    x->n_rows = views[B_S].shape[0];
    x->B = views[B_S].shape[1];
    x->M = (u32 *)views[B_M].buf;
    x->mem_words = views[B_M].shape[1];
    x->stim = (const u32 *)views[B_STIM].buf;
    x->stim_len = views[B_STIM].len / 4;

    const u32 *sm = (const u32 *)views[B_SM].buf;
    const Py_ssize_t sm_cols = views[B_SM].shape[1];
    const Py_ssize_t sm_cycles = views[B_SM].shape[0];
    const u32 *pm = (const u32 *)views[B_PM].buf;
    const Py_ssize_t pm_cols = views[B_PM].shape[1];
    const Py_ssize_t pm_cycles = views[B_PM].shape[0];
    int64_t *t = (int64_t *)views[B_T].buf;
    const int64_t *end = (const int64_t *)views[B_END].buf;
    int64_t *next_chk = (int64_t *)views[B_CHK].buf;
    int64_t *chk_iv = (int64_t *)views[B_IV].buf;
    const uint8_t *is_hard = (const uint8_t *)views[B_HARD].buf;
    const int64_t *force_row = (const int64_t *)views[B_FROW].buf;
    const u32 *force_and = (const u32 *)views[B_FAND].buf;
    const u32 *force_or = (const u32 *)views[B_FOR].buf;
    const Py_ssize_t n_regs = (Py_ssize_t)x->c.n_regs;

    if (n < 0 || n > x->B || views[B_M].shape[0] != x->B
        || views[B_T].len / 8 < n || views[B_END].len / 8 < n
        || views[B_CHK].len / 8 < n || views[B_IV].len / 8 < n
        || views[B_HARD].len < n || views[B_FROW].len / 8 < n
        || views[B_FAND].len / 4 < n || views[B_FOR].len / 4 < n
        || sm_cols < n_regs || pm_cols < 18 || n_regs > x->n_rows
        || x->stim_len <= 0 || x->mem_words <= 0) {
        PyErr_SetString(PyExc_ValueError, "inconsistent drive shapes");
        goto cleanup;
    }

    DriveJob job = {
        x, sm, pm, sm_cols, sm_cycles, pm_cols, pm_cycles,
        t, end, next_chk, chk_iv, is_hard, force_row, force_and,
        force_or, n, stride, max_cycles, n_regs,
    };
    SliceResult total;
    int n_slices = 1;

    if (n_threads > (Py_ssize_t)(MAX_DRIVE_THREADS + 1))
        n_threads = MAX_DRIVE_THREADS + 1;
    if (n_threads > n)
        n_threads = n;          /* never hand a thread an empty slice */
    if (n_threads > 1) {
        /* GIL still held: serialised pool growth, then claim the job
         * slot.  A concurrent drive() (another Python thread) that
         * loses the trylock runs inline single-threaded instead of
         * blocking on the pool. */
        int avail = ensure_pool((int)n_threads - 1);
        if (avail > (int)n_threads - 1)
            avail = (int)n_threads - 1;  /* pool may have grown larger */
        if (avail > 0 && pthread_mutex_trylock(&pool.busy) == 0)
            n_slices = avail + 1;
    }

    if (n_slices > 1) {
        Py_BEGIN_ALLOW_THREADS
        run_job(&job, n_slices, &total);
        Py_END_ALLOW_THREADS
        pthread_mutex_unlock(&pool.busy);
    } else {
        Py_BEGIN_ALLOW_THREADS
        run_slice(&job, 0, 1, &total);
        Py_END_ALLOW_THREADS
    }

    if (total.error != 0) {
        PyErr_SetString(PyExc_ValueError, DRIVE_ERR_MSG[total.error]);
        goto cleanup;
    }
    ret = Py_BuildValue("(ni)", total.cycles_run, total.diverged);

cleanup:
    if (tables_held)
        release_all(tv, 13);
    release_all(views, NBUF);
    return ret;
}

/* Worker threads created in this process so far (0 after a fork until
 * the next multithreaded drive).  Introspection for tests/benchmarks. */
static PyObject *py_pool_size(PyObject *self, PyObject *args)
{
    (void)self;
    (void)args;
    if (pool.owner != getpid())
        return PyLong_FromLong(0);
    return PyLong_FromLong((long)pool.spawned);
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
    {"drive", py_drive, METH_VARARGS,
     "drive(S, M, sm, pm, stim, t, end, next_chk, chk_iv, is_hard, "
     "force_row, force_and, force_or, tables, n, stride, max_cycles, "
     "n_threads) -> (cycles_run, diverged): fused force/compare/step "
     "loop; lanes are sliced across a persistent thread pool (GIL "
     "released) when n_threads > 1."},
    {"pool_size", py_pool_size, METH_NOARGS,
     "pool_size() -> worker threads alive in this process's pool."},
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
