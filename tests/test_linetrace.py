from linetrace import LineTrace

SAMPLE = '''
def branches(flag):
    """Not a statement that runs."""
    try:
        value = dict(
            flag=flag,
        )
    except KeyError:
        value = None
    if flag:
        return value
    else:
        return (
            None
        )


class Holder:
    def never(self):
        return 1

    def nested(self):
        def inner():
            return 2

        return 3
'''


def test_the_line_trace_lists_each_statement_that_never_ran(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    namespace: dict = {}
    exec(compile(SAMPLE, str(path), "exec"), namespace)
    trace = LineTrace(tmp_path)
    trace.start()
    try:
        namespace["branches"](True)
        namespace["Holder"]().nested()
    finally:
        trace.stop()
    assert [(line, name) for _, line, name in trace.unexecuted()] == [
        (9, "branches"),
        (13, "branches"),
        (20, "Holder.never"),
        (24, "Holder.nested.inner"),
    ]
