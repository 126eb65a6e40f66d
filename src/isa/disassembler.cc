#include "isa/disassembler.hh"

#include <map>
#include <set>
#include <sstream>

#include "common/log.hh"

namespace vtsim {

namespace {

std::string
regName(RegIndex r)
{
    std::string name = "r";
    name += std::to_string(r);
    return name;
}

std::string
memRef(RegIndex base, std::int32_t off)
{
    std::ostringstream os;
    os << '[' << regName(base);
    if (off > 0)
        os << '+' << off;
    else if (off < 0)
        os << off;
    os << ']';
    return os.str();
}

/** Default reconvergence PC the builder would compute for this branch. */
Pc
defaultReconverge(Pc pc, Pc target)
{
    return target > pc ? target : pc + 1;
}

} // namespace

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream os;
    switch (inst.op) {
      case Opcode::NOP:
      case Opcode::BAR:
      case Opcode::EXIT:
        os << toString(inst.op);
        break;
      case Opcode::MOV:
        os << "mov " << regName(inst.dst) << ", " << regName(inst.src[0]);
        break;
      case Opcode::MOVI:
        os << "movi " << regName(inst.dst) << ", " << inst.imm;
        break;
      case Opcode::S2R:
        os << "s2r " << regName(inst.dst) << ", " << toString(inst.sreg);
        break;
      case Opcode::LDP:
        os << "ldp " << regName(inst.dst) << ", " << inst.imm;
        break;
      case Opcode::LDG:
      case Opcode::LDS:
        os << toString(inst.op);
        if (inst.op == Opcode::LDG &&
            inst.cacheOp == CacheOp::Streaming) {
            os << ".cg";
        }
        os << ' ' << regName(inst.dst) << ", "
           << memRef(inst.src[0], inst.imm);
        break;
      case Opcode::STG:
      case Opcode::STS:
        os << toString(inst.op) << ' ' << memRef(inst.src[0], inst.imm)
           << ", " << regName(inst.src[1]);
        break;
      case Opcode::ATOMG_ADD:
        os << "atomg.add " << regName(inst.dst) << ", "
           << memRef(inst.src[0], inst.imm) << ", "
           << regName(inst.src[1]);
        break;
      case Opcode::ISETP:
      case Opcode::FSETP:
        os << toString(inst.op) << '.' << toString(inst.cmp) << ' '
           << regName(inst.dst) << ", " << regName(inst.src[0]) << ", ";
        if (inst.useImm)
            os << inst.imm;
        else
            os << regName(inst.src[1]);
        break;
      case Opcode::SEL:
        os << "sel " << regName(inst.dst) << ", " << regName(inst.src[0])
           << ", " << regName(inst.src[1]) << ", "
           << regName(inst.src[2]);
        break;
      case Opcode::IMAD:
      case Opcode::FFMA:
        os << toString(inst.op) << ' ' << regName(inst.dst) << ", "
           << regName(inst.src[0]) << ", " << regName(inst.src[1]) << ", "
           << regName(inst.src[2]);
        break;
      case Opcode::NOT:
      case Opcode::I2F:
      case Opcode::F2I:
      case Opcode::FRCP:
      case Opcode::FSQRT:
      case Opcode::FEXP:
      case Opcode::FLOG:
        os << toString(inst.op) << ' ' << regName(inst.dst) << ", "
           << regName(inst.src[0]);
        break;
      case Opcode::BRA:
        // Target/join rendered by the kernel-level disassembler; standalone
        // form shows raw PCs.
        os << "bra ";
        if (inst.src[0] != noReg)
            os << regName(inst.src[0]) << ", ";
        os << "@" << inst.branchTarget;
        break;
      default:
        os << toString(inst.op) << ' ';
        if (inst.hasDst())
            os << regName(inst.dst) << ", ";
        os << regName(inst.src[0]) << ", ";
        if (inst.useImm)
            os << inst.imm;
        else
            os << regName(inst.src[1]);
        break;
    }
    return os.str();
}

std::string
disassemble(const Kernel &kernel)
{
    // Collect every PC that needs a label: existing labels, branch targets
    // and non-default reconvergence points.
    std::map<Pc, std::string> labels;
    for (Pc pc = 0; pc < kernel.size(); ++pc) {
        const std::string l = kernel.labelAt(pc);
        if (!l.empty())
            labels[pc] = l;
    }
    std::set<Pc> needed;
    for (Pc pc = 0; pc < kernel.size(); ++pc) {
        const Instruction &inst = kernel.at(pc);
        if (!inst.isBranch())
            continue;
        needed.insert(inst.branchTarget);
        if (inst.reconvergePc != defaultReconverge(pc, inst.branchTarget))
            needed.insert(inst.reconvergePc);
    }
    for (Pc pc : needed)
        if (!labels.count(pc))
            labels[pc] = std::string("L").append(std::to_string(pc));

    std::ostringstream os;
    os << ".kernel " << kernel.name() << '\n';
    os << ".regs " << kernel.regsPerThread() << '\n';
    if (kernel.sharedBytesPerCta())
        os << ".shared " << kernel.sharedBytesPerCta() << '\n';

    for (Pc pc = 0; pc < kernel.size(); ++pc) {
        auto lit = labels.find(pc);
        if (lit != labels.end())
            os << lit->second << ":\n";
        const Instruction &inst = kernel.at(pc);
        os << "    ";
        if (inst.isBranch()) {
            VTSIM_ASSERT(labels.count(inst.branchTarget), "missing label");
            if (inst.src[0] == noReg) {
                // Unconditional: render as jmp (the assembler's spelling).
                os << "jmp " << labels.at(inst.branchTarget);
            } else {
                os << "bra " << regName(inst.src[0]) << ", "
                   << labels.at(inst.branchTarget);
                if (inst.reconvergePc !=
                    defaultReconverge(pc, inst.branchTarget)) {
                    os << ", join=" << labels.at(inst.reconvergePc);
                }
            }
        } else {
            os << disassemble(inst);
        }
        os << '\n';
    }
    return os.str();
}

} // namespace vtsim
