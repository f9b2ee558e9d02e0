"""Abstract CFG construction (§5.1): loop summarization and inlining.

Clou eliminates loops by *two unrollings* (with memory alias analysis,
all relevant com/comx interactions of a loop are modeled by two copies of
its body) and eliminates calls by inlining (recursive calls inlined
twice).  Calls to undefined functions are kept and later treated as
*havoc*: a load or store to any of their pointer operands (§5.1).

All transforms are IR-to-IR; the result is a DAG CFG (``Function.is_dag``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace as dc_replace

from repro.errors import AnalysisError
from repro.ir import (
    Alloca,
    Argument,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Cast,
    Constant,
    Function,
    GetElementPtr,
    ICmp,
    Instruction,
    Jump,
    Load,
    Module,
    Ret,
    Store,
    Temp,
    Value,
    pointer_to,
    verify_function,
)
from repro.relations import Relation

MAX_ACFG_INSTRUCTIONS = 60_000
RECURSION_INLINE_LIMIT = 2


# ----------------------------------------------------------------------
# Generic block cloning with renaming
# ----------------------------------------------------------------------


def _rename_value(value: Value, mapping: dict[str, Temp]) -> Value:
    if isinstance(value, Temp) and value.name in mapping:
        return mapping[value.name]
    return value


def _clone_instruction(ins: Instruction, temp_map: dict[str, Temp],
                       label_map: dict[str, str], suffix: str) -> Instruction:
    cloned = dc_replace(ins)
    if ins.result is not None:
        new_result = Temp(f"{ins.result.name}{suffix}", ins.result.type)
        temp_map[ins.result.name] = new_result
        cloned.result = new_result
    if isinstance(cloned, Load):
        cloned.pointer = _rename_value(cloned.pointer, temp_map)
    elif isinstance(cloned, Store):
        cloned.value = _rename_value(cloned.value, temp_map)
        cloned.pointer = _rename_value(cloned.pointer, temp_map)
    elif isinstance(cloned, GetElementPtr):
        cloned.base = _rename_value(cloned.base, temp_map)
        cloned.indices = tuple(_rename_value(i, temp_map) for i in cloned.indices)
    elif isinstance(cloned, (BinOp, ICmp)):
        cloned.lhs = _rename_value(cloned.lhs, temp_map)
        cloned.rhs = _rename_value(cloned.rhs, temp_map)
    elif isinstance(cloned, Cast):
        cloned.value = _rename_value(cloned.value, temp_map)
    elif isinstance(cloned, Call):
        cloned.args = tuple(_rename_value(a, temp_map) for a in cloned.args)
    elif isinstance(cloned, Branch):
        cloned.cond = _rename_value(cloned.cond, temp_map)
        cloned.then_label = label_map.get(cloned.then_label, cloned.then_label)
        cloned.else_label = label_map.get(cloned.else_label, cloned.else_label)
    elif isinstance(cloned, Jump):
        cloned.label = label_map.get(cloned.label, cloned.label)
    elif isinstance(cloned, Ret) and cloned.value is not None:
        cloned.value = _rename_value(cloned.value, temp_map)
    return cloned


def _clone_blocks(blocks: list[BasicBlock], suffix: str,
                  internal_labels: set[str]) -> list[BasicBlock]:
    """Clone a region; only labels inside the region are remapped."""
    label_map = {label: f"{label}{suffix}" for label in internal_labels}
    temp_map: dict[str, Temp] = {}
    cloned_blocks = []
    for block in blocks:
        cloned = BasicBlock(label_map.get(block.label, block.label))
        for ins in block.instructions:
            cloned.instructions.append(
                _clone_instruction(ins, temp_map, label_map, suffix)
            )
        cloned_blocks.append(cloned)
    return cloned_blocks


# ----------------------------------------------------------------------
# Loop summarization (two unrollings)
# ----------------------------------------------------------------------


def _find_back_edge(function: Function) -> tuple[str, str] | None:
    """Find one back edge (tail -> head) via DFS from the entry block."""
    adjacency = {block.label: block.successors() for block in function.blocks}
    visited: set[str] = set()
    on_stack: set[str] = set()
    result: list[tuple[str, str]] = []

    def dfs(label: str) -> bool:
        visited.add(label)
        on_stack.add(label)
        for successor in adjacency.get(label, ()):
            if successor in on_stack:
                result.append((label, successor))
                return True
            if successor not in visited and dfs(successor):
                return True
        on_stack.discard(label)
        return False

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(function.blocks) * 4 + 100))
    try:
        dfs(function.entry.label)
    finally:
        sys.setrecursionlimit(old_limit)
    return result[0] if result else None


def _natural_loop(function: Function, tail: str, head: str) -> set[str]:
    """Blocks of the natural loop of back edge tail->head: head plus all
    blocks that reach tail without passing through head."""
    predecessors: dict[str, list[str]] = {}
    for block in function.blocks:
        for successor in block.successors():
            predecessors.setdefault(successor, []).append(block.label)
    loop = {head, tail}
    worklist = [tail]
    while worklist:
        label = worklist.pop()
        for predecessor in predecessors.get(label, ()):
            if predecessor not in loop:
                loop.add(predecessor)
                worklist.append(predecessor)
    return loop


def _redirect(block: BasicBlock, old_target: str, new_target: str) -> None:
    terminator = block.terminator
    if isinstance(terminator, Jump) and terminator.label == old_target:
        terminator.label = new_target
    elif isinstance(terminator, Branch):
        if terminator.then_label == old_target:
            terminator.then_label = new_target
        if terminator.else_label == old_target:
            terminator.else_label = new_target


def unroll_loops(function: Function, unroll_factor: int = 2,
                 max_iterations: int = 64) -> Function:
    """Summarize every loop with ``unroll_factor`` copies of its body.

    The final back edge is *cut*: it is redirected to a block that ends
    the path (paths needing more iterations are summarized by the two
    modeled ones, §5.1).
    """
    counter = itertools.count(0)
    for _ in range(max_iterations):
        back_edge = _find_back_edge(function)
        if back_edge is None:
            break
        tail, head = back_edge
        loop_labels = _natural_loop(function, tail, head)
        loop_blocks = [b for b in function.blocks if b.label in loop_labels]
        # All latches: loop blocks with an edge back to the header (a
        # `while` with `continue` has several).
        latch_labels = [
            b.label for b in loop_blocks if head in b.successors()
        ]

        unroll_id = next(counter)
        all_clones: list[BasicBlock] = []
        previous_tails: list[BasicBlock] = [
            function.block(label) for label in latch_labels
        ]
        previous_head_name = head
        for copy_index in range(1, unroll_factor):
            suffix = f".u{unroll_id}.{copy_index}"
            clones = _clone_blocks(loop_blocks, suffix, loop_labels)
            all_clones.extend(clones)
            for block in previous_tails:
                _redirect(block, previous_head_name, f"{head}{suffix}")
            previous_tails = [
                b for b in clones
                if b.label in {f"{label}{suffix}" for label in latch_labels}
            ]
            previous_head_name = f"{head}{suffix}"

        # Cut the final copy's back edges.
        cut_label = f"loop.cut.{unroll_id}"
        for block in previous_tails:
            _redirect(block, previous_head_name, cut_label)
        cut_block = BasicBlock(cut_label)
        from repro.ir import VoidType

        if isinstance(function.return_type, VoidType):
            cut_block.instructions.append(Ret())
        else:
            cut_block.instructions.append(
                Ret(value=Constant(0, function.return_type))
            )
        function.blocks.extend(all_clones)
        function.blocks.append(cut_block)

        if function.instruction_count() > MAX_ACFG_INSTRUCTIONS:
            raise AnalysisError(
                f"{function.name}: A-CFG exceeded {MAX_ACFG_INSTRUCTIONS} "
                "instructions during loop unrolling"
            )
    else:
        raise AnalysisError(
            f"{function.name}: loop structure too complex to summarize"
        )
    return function


# ----------------------------------------------------------------------
# Function inlining
# ----------------------------------------------------------------------


def _inline_one_call(function: Function, block_index: int, ins_index: int,
                     callee: Function, chain: tuple[str, ...],
                     inline_id: int) -> int:
    """Splice ``callee`` in place of the call instruction; returns the
    number of instructions the function grew by."""
    block = function.blocks[block_index]
    call = block.instructions[ins_index]
    replaced = len(block.instructions)
    suffix = f".i{inline_id}"

    callee_labels = {b.label for b in callee.blocks}
    clones = _clone_blocks(callee.blocks, suffix, callee_labels)

    # Substitute arguments: the callee entry stores Argument values into
    # param allocas; replace those Argument operands with actual values.
    arg_values = dict(zip((name for name, _ in callee.params), call.args))

    def substitute(value: Value) -> Value:
        if isinstance(value, Argument) and value.name in arg_values:
            return arg_values[value.name]
        return value

    for clone in clones:
        for ins in clone.instructions:
            if isinstance(ins, Store):
                ins.value = substitute(ins.value)
                ins.pointer = substitute(ins.pointer)
            elif isinstance(ins, Load):
                ins.pointer = substitute(ins.pointer)
            elif isinstance(ins, GetElementPtr):
                ins.base = substitute(ins.base)
                ins.indices = tuple(substitute(i) for i in ins.indices)
            elif isinstance(ins, (BinOp, ICmp)):
                ins.lhs = substitute(ins.lhs)
                ins.rhs = substitute(ins.rhs)
            elif isinstance(ins, Cast):
                ins.value = substitute(ins.value)
            elif isinstance(ins, Call):
                ins.args = tuple(substitute(a) for a in ins.args)
                ins.inline_chain = chain  # provenance for recursion limit
            elif isinstance(ins, Branch):
                ins.cond = substitute(ins.cond)
            elif isinstance(ins, Ret) and ins.value is not None:
                ins.value = substitute(ins.value)

    continuation_label = f"{block.label}.cont{inline_id}"
    continuation = BasicBlock(continuation_label)

    # Route returns through a result slot.
    result_slot: Temp | None = None
    if call.result is not None:
        result_slot = Temp(f"inlret{inline_id}.addr", pointer_to(call.result.type))
        block_prefix = block.instructions[:ins_index]
        block_prefix.append(Alloca(result=result_slot,
                                   allocated_type=call.result.type,
                                   var_name=f"inlret{inline_id}"))
    else:
        block_prefix = block.instructions[:ins_index]

    for clone in clones:
        new_instructions = []
        for ins in clone.instructions:
            if isinstance(ins, Ret):
                if result_slot is not None:
                    value = ins.value if ins.value is not None \
                        else Constant(0, call.result.type)
                    new_instructions.append(Store(value=value, pointer=result_slot))
                new_instructions.append(Jump(label=continuation_label))
            else:
                new_instructions.append(ins)
        clone.instructions = new_instructions

    if call.result is not None:
        continuation.instructions.append(
            Load(result=call.result, pointer=result_slot)
        )
    continuation.instructions.extend(block.instructions[ins_index + 1:])

    entry_label = f"{callee.entry.label}{suffix}"
    block_prefix.append(Jump(label=entry_label))
    block.instructions = block_prefix

    function.blocks[block_index + 1:block_index + 1] = [*clones, continuation]
    return len(block.instructions) - replaced + sum(
        len(clone.instructions) for clone in clones) + \
        len(continuation.instructions)


def inline_calls(function: Function, module: Module) -> Function:
    """Inline all calls to defined functions; recursion is inlined up to
    RECURSION_INLINE_LIMIT times, after which the residual call is left
    undefined (havoc).

    Calls are inlined in block order.  Whether a call is inlined depends
    only on the call itself, so the scan never revisits what it passed:
    after a splice the call's block ends in a jump to the callee's entry
    clone, the next block, where the scan resumes."""
    inline_counter = itertools.count(0)
    count = function.instruction_count()
    block_index = 0
    while block_index < len(function.blocks):
        for ins_index, ins in enumerate(function.blocks[block_index].instructions):
            if not isinstance(ins, Call):
                continue
            callee = module.functions.get(ins.callee)
            if callee is None:
                continue  # undefined: havoc later
            chain = getattr(ins, "inline_chain", ())
            if chain.count(ins.callee) >= RECURSION_INLINE_LIMIT:
                continue  # recursion budget exhausted: havoc
            count += _inline_one_call(
                function, block_index, ins_index, callee,
                chain + (ins.callee,), next(inline_counter),
            )
            if count > MAX_ACFG_INSTRUCTIONS:
                raise AnalysisError(
                    f"{function.name}: A-CFG exceeded instruction budget "
                    "during inlining"
                )
            break
        block_index += 1
    return function


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


@dataclass
class ACFG:
    """The abstract CFG of one public function: a loop- and call-free
    (except undefined calls) DAG over IR instructions."""

    function: Function
    inlined_functions: set[str]

    @property
    def instruction_count(self) -> int:
        return self.function.instruction_count()


def _copy_function(function: Function) -> Function:
    clones = _clone_blocks(function.blocks, "", set())
    # Suffix "" keeps names; deep-copies instructions so transforms don't
    # mutate the module's canonical IR.
    return Function(
        name=function.name,
        params=list(function.params),
        return_type=function.return_type,
        blocks=clones,
        is_public=function.is_public,
    )


def _call_closure(module: Module, function_name: str) -> list[str]:
    """The defined functions reachable from ``function_name`` through
    calls, itself included."""
    closure = [function_name]
    seen = {function_name}
    for name in closure:
        for block in module.functions[name].blocks:
            for ins in block.instructions:
                if isinstance(ins, Call) and ins.callee not in seen and \
                        ins.callee in module.functions:
                    seen.add(ins.callee)
                    closure.append(ins.callee)
    return closure


def build_acfg(module: Module, function_name: str) -> ACFG:
    """Build the A-CFG of a public function (§5.1): unroll every loop in
    every reachable callee, inline, then unroll the result again (inlined
    loops arrive pre-summarized, so the final pass is a safety net).
    Functions the target never reaches are not summarized."""
    if function_name not in module.functions:
        raise AnalysisError(f"no function named {function_name!r}")

    summarized: dict[str, Function] = {}
    for name in _call_closure(module, function_name):
        summarized[name] = unroll_loops(_copy_function(module.functions[name]))
    working_module = Module(
        name=module.name,
        functions=summarized,
        globals=module.globals,
        structs=module.structs,
    )
    target = _copy_function(summarized[function_name])
    before = {ins.callee for b in target.blocks
              for ins in b.instructions if isinstance(ins, Call)}
    inline_calls(target, working_module)
    unroll_loops(target)
    verify_function(target)
    if not target.is_dag():
        raise AnalysisError(f"{function_name}: A-CFG is not acyclic")
    inlined = {
        name for name in before if name in module.functions
    }
    return ACFG(function=target, inlined_functions=inlined)
