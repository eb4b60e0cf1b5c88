import os
import sys

from .cli import main

status = main()
try:
    sys.stdout.flush()
    sys.stderr.flush()
except OSError:
    sys.exit(status)  # the interpreter's own exit reports the failed flush
# the output is out: skip the interpreter's teardown of every module and object
os._exit(status)
