"""Subclass-distillation laboratory.

Train a teacher on subclass labels, distill its temperature-softened
predictions into a smaller student, evaluate both at class level, and bound
the label information (in bits) that each labeling scheme can transfer.
"""
