"""mini-C code generation: compiled programs run correctly."""

import pytest

from repro.cc import compile_c, compile_c_binary
from repro.errors import CompileError
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import Interpreter, Store, instantiate
from repro.wasm.wasi import WasiEnv


def call(source: str, func: str, *args):
    """Compile and invoke one exported function directly."""
    module = compile_c(source)
    store = Store()
    wasi = WasiEnv()
    inst = instantiate(store, module, imports=wasi.register(store, module).import_map())
    if inst.mem_addrs:
        wasi.attach_memory(store.mems[inst.mem_addrs[0]])
    return Interpreter(store).invoke_export(inst, func, list(args))


def run_main(source: str, env=None):
    return run_wasi(compile_c_binary(source), args=["prog"], env=env or {})


class TestArithmetic:
    def test_basic_ops(self):
        src = "int f(int a, int b) { return (a + b) * (a - b) / 2 % 7; }"
        assert call(src, "f", 7, 3) == [(10 * 4 // 2) % 7]

    def test_signed_division(self):
        src = "int f(int a, int b) { return a / b; }"
        assert call(src, "f", 0xFFFFFFF9, 2) == [(-7 // -2 if False else 0xFFFFFFFD)]  # -7/2=-3

    def test_bitwise(self):
        src = "int f(int a) { return (a & 0xF0) | (a ^ 0xFF) ; }"
        assert call(src, "f", 0x3C) == [(0x3C & 0xF0) | (0x3C ^ 0xFF)]

    def test_shifts_are_arithmetic(self):
        src = "int f(int a) { return a >> 2; }"
        assert call(src, "f", 0xFFFFFFF0) == [0xFFFFFFFC]  # -16 >> 2 = -4

    def test_unary(self):
        src = "int f(int a) { return -a + ~a + !a; }"
        # -5 + ~5 + 0 = -5 - 6 = -11
        assert call(src, "f", 5) == [(-11) & 0xFFFFFFFF]

    def test_int_wraps_at_32_bits(self):
        src = "int f(int a) { return a * a; }"
        assert call(src, "f", 0x10000) == [0]

    def test_long_arithmetic(self):
        src = "long f(long a, long b) { return a * b; }"
        assert call(src, "f", 1 << 20, 1 << 20) == [1 << 40]

    def test_mixed_promotes_to_long(self):
        src = "long f(int a, long b) { return a + b; }"
        assert call(src, "f", 0xFFFFFFFF, 10) == [9]  # -1 + 10, sign-extended

    def test_narrowing_assignment_wraps(self):
        src = "int f(long a) { int x = a; return x; }"
        assert call(src, "f", 0x1_0000_0005) == [5]

    def test_hex_and_char_literals(self):
        src = "int f(void) { return 0xFF + 'A'; }"
        assert call(src, "f") == [255 + 65]


class TestControlFlow:
    def test_if_else_chain(self):
        src = """
        int grade(int score) {
            if (score >= 90) { return 4; }
            else if (score >= 80) { return 3; }
            else if (score >= 70) { return 2; }
            else { return 0; }
        }
        """
        assert call(src, "grade", 95) == [4]
        assert call(src, "grade", 85) == [3]
        assert call(src, "grade", 71) == [2]
        assert call(src, "grade", 10) == [0]

    def test_while_loop(self):
        src = """
        int sum(int n) {
            int total = 0;
            while (n > 0) { total += n; n = n - 1; }
            return total;
        }
        """
        assert call(src, "sum", 100) == [5050]

    def test_for_loop(self):
        src = """
        int f(void) {
            int total = 0;
            for (int i = 0; i < 10; i++) { total += i; }
            return total;
        }
        """
        assert call(src, "f") == [45]

    def test_break(self):
        src = """
        int f(void) {
            int i;
            for (i = 0; i < 100; i++) { if (i == 7) { break; } }
            return i;
        }
        """
        assert call(src, "f") == [7]

    def test_continue_skips_step_correctly(self):
        src = """
        int f(void) {
            int total = 0;
            for (int i = 0; i < 10; i++) {
                if (i % 2 == 0) { continue; }
                total += i;
            }
            return total;
        }
        """
        assert call(src, "f") == [1 + 3 + 5 + 7 + 9]

    def test_continue_in_while(self):
        src = """
        int f(void) {
            int i = 0; int total = 0;
            while (i < 10) {
                i++;
                if (i > 5) { continue; }
                total += i;
            }
            return total;
        }
        """
        assert call(src, "f") == [15]

    def test_nested_loops_break_inner_only(self):
        src = """
        int f(void) {
            int count = 0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 10; j++) {
                    if (j == 2) { break; }
                    count++;
                }
            }
            return count;
        }
        """
        assert call(src, "f") == [6]

    def test_short_circuit_and(self):
        src = """
        int calls;
        int bump(void) { calls += 1; return 1; }
        int f(int a) { return a && bump(); }
        int probe(void) { return calls; }
        """
        module_calls = call(src, "f", 0)
        assert module_calls == [0]
        # bump() must not have run: compile fresh and check via probe.
        src2 = src + "int g(void) { f(0); return probe(); }"
        assert call(src2, "g") == [0]
        src3 = src + "int g(void) { f(5); return probe(); }"
        assert call(src3, "g") == [1]

    def test_short_circuit_or(self):
        src = """
        int calls;
        int bump(void) { calls += 1; return 0; }
        int f(int a) { return a || bump(); }
        int g(void) { f(1); return calls; }
        """
        assert call(src, "g") == [0]

    def test_logical_results_are_bool(self):
        src = "int f(int a, int b) { return (a && b) + (a || b); }"
        assert call(src, "f", 7, 9) == [2]


class TestFunctionsAndGlobals:
    def test_recursion(self):
        src = """
        int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        """
        assert call(src, "fact", 7) == [5040]

    def test_mutual_recursion(self):
        # Function signatures are collected before bodies are compiled,
        # so forward references work without prototypes.
        src = """
        int is_even(int n) {
            if (n == 0) { return 1; }
            return is_odd(n - 1);
        }
        int is_odd(int n) {
            if (n == 0) { return 0; }
            return is_even(n - 1);
        }
        """
        assert call(src, "is_even", 10) == [1]
        assert call(src, "is_odd", 10) == [0]
        assert call(src, "is_even", 7) == [0]

    def test_call_before_definition(self):
        src = """
        int outer(int n) { return helper(n) * 2; }
        int helper(int n) { return n + 1; }
        """
        assert call(src, "outer", 20) == [42]

    def test_globals_persist(self):
        src = """
        int counter = 10;
        int bump(void) { counter += 1; return counter; }
        int f(void) { bump(); bump(); return bump(); }
        """
        assert call(src, "f") == [13]

    def test_long_global(self):
        src = """
        long acc = -3;
        long f(void) { acc = acc * 1000000000L; return acc; }
        """
        assert call(src, "f") == [(-3_000_000_000) & 0xFFFFFFFFFFFFFFFF]

    def test_argument_conversion(self):
        src = """
        long wide(long x) { return x + 1; }
        long f(int a) { return wide(a); }
        """
        assert call(src, "f", 0xFFFFFFFF) == [0]  # -1 sign-extended, +1


class TestErrors:
    @pytest.mark.parametrize(
        "src,match",
        [
            ("int f(void) { return g(); }", "unknown function"),
            ("int f(void) { return x; }", "unknown variable"),
            ("int f(void) { int a; int a; return 0; }", "redeclaration"),
            ("int f(int a) { return f(); }", "expects 1 args"),
            ("void f(void) { return 1; }", "void function returns"),
            ("int f(void) { break; return 0; }", "outside of a loop"),
            ("int f(void) { continue; return 0; }", "outside of a loop"),
            ("int f(void) { puts(42); return 0; }", "string literal"),
            ("int main(int argc) { return 0; }", "no parameters"),
            ("int f(void) { return 0; } int f(void) { return 1; }", "duplicate function"),
        ],
    )
    def test_compile_errors(self, src, match):
        with pytest.raises(CompileError, match=match):
            compile_c(src)


class TestWasiIntegration:
    def test_main_exit_code(self):
        assert run_main("int main(void) { return 42; }").exit_code == 42

    def test_void_main_exits_zero(self):
        assert run_main("void main(void) { puts(\"hi\"); }").exit_code == 0

    def test_explicit_exit(self):
        src = "int main(void) { exit(7); return 0; }"
        assert run_main(src).exit_code == 7

    def test_puts_and_putd(self):
        src = """
        int main(void) {
            puts("header");
            putd(12345);
            putd(-99);
            putd(0);
            return 0;
        }
        """
        assert run_main(src).stdout == b"header\n12345\n-99\n0\n"

    def test_env_int_reads_environment(self):
        src = """
        int main(void) {
            putd(env_int("WORKERS", 4));
            putd(env_int("MISSING", -1));
            return 0;
        }
        """
        result = run_main(src, env={"WORKERS": "16", "OTHER": "9"})
        assert result.stdout == b"16\n-1\n"

    def test_env_int_negative_value(self):
        src = 'int main(void) { putd(env_int("DELTA", 0)); return 0; }'
        assert run_main(src, env={"DELTA": "-250"}).stdout == b"-250\n"

    def test_env_int_prefix_not_matched(self):
        src = 'int main(void) { putd(env_int("REQ", 5)); return 0; }'
        # "REQUESTS" must not match "REQ".
        assert run_main(src, env={"REQUESTS": "100"}).stdout == b"5\n"

    def test_clock_ms(self):
        src = "int main(void) { putd(clock_ms()); return 0; }"
        blob = compile_c_binary(src)
        result = run_wasi(blob, clock_ns=lambda: 2_500_000_000)
        assert result.stdout == b"2500\n"

    def test_function_names_survive_in_name_section(self):
        from repro.wasm import decode_module, encode_module
        from repro.wasm.names import apply_name_section

        module = compile_c("int work(void) { return 1; } int main(void) { return work(); }")
        decoded = apply_name_section(decode_module(encode_module(module)))
        names = {f.name for f in decoded.funcs}
        assert {"work", "main", "_start"} <= names
