/**
 * @file
 * Per-warp SIMT reconvergence stack (PDOM scheme). This is one of the
 * scheduling-limit structures the Virtual Thread architecture virtualises:
 * its contents are what gets saved/restored on a CTA swap, so its maximum
 * depth feeds the storage-overhead model (TAB-3).
 */

#ifndef VTSIM_SM_SIMT_STACK_HH
#define VTSIM_SM_SIMT_STACK_HH

#include <cstdint>
#include <vector>

#include "common/active_mask.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "sim/serializer.hh"

namespace vtsim {

class SimtStack
{
  public:
    /** One reconvergence frame. */
    struct Entry
    {
        Pc pc;
        Pc reconvergePc; ///< Pop when pc reaches this; invalidPc = never.
        ActiveMask mask;
    };

    /** Reset to a single frame at @p entry_pc with @p initial lanes. */
    void reset(ActiveMask initial, Pc entry_pc = 0);

    /** True when every lane has exited. */
    bool done() const { return stack_.empty(); }

    /** Current fetch PC. Inline: read on every issue-walk visit. */
    Pc pc() const
    {
        VTSIM_ASSERT(!stack_.empty(), "pc() on finished warp");
        return stack_.back().pc;
    }

    /** Lanes executing at the current PC. */
    ActiveMask activeMask() const
    {
        VTSIM_ASSERT(!stack_.empty(), "activeMask() on finished warp");
        return stack_.back().mask;
    }

    /**
     * Advance past a non-branch instruction at the current PC, popping
     * reconvergence frames whose point is reached.
     */
    void advance();

    /**
     * Apply a branch executed at @p branch_pc: @p taken is the sub-mask of
     * active lanes taking it. Handles the uniform and divergent cases and
     * pushes frames per the PDOM scheme.
     */
    void branch(const Instruction &inst, Pc branch_pc, ActiveMask taken);

    /**
     * Retire the currently active lanes (EXIT): they are removed from
     * every frame; empty frames pop.
     */
    void exitActiveLanes();

    /** Current stack depth (frames). */
    std::uint32_t depth() const { return stack_.size(); }

    /** Deepest the stack has ever been (for overhead accounting). */
    std::uint32_t maxDepth() const { return maxDepth_; }

    const std::vector<Entry> &entries() const { return stack_; }

    // Checkpoint plumbing (driven by the owning WarpContext).
    void
    save(Serializer &ser) const
    {
        static_assert(std::is_trivially_copyable_v<Entry>);
        ser.putVec(stack_);
        ser.put(maxDepth_);
    }

    void
    restore(Deserializer &des)
    {
        des.getVec(stack_);
        des.get(maxDepth_);
    }

  private:
    void popReconverged();

    std::vector<Entry> stack_;
    std::uint32_t maxDepth_ = 0;
};

} // namespace vtsim

#endif // VTSIM_SM_SIMT_STACK_HH
