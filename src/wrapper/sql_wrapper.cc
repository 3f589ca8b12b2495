#include "wrapper/sql_wrapper.h"

#include <optional>

#include "common/string_util.h"

namespace lakefed::wrapper {
namespace {

using mapping::ClassMapping;
using mapping::PredicateMapping;

rel::ExprPtr TriviallyTrue() {
  return rel::MakeBinary(rel::BinaryOp::kEq,
                         rel::MakeLiteral(rel::Value(int64_t{1})),
                         rel::MakeLiteral(rel::Value(int64_t{1})));
}

rel::ExprPtr TriviallyFalse() {
  return rel::MakeBinary(rel::BinaryOp::kEq,
                         rel::MakeLiteral(rel::Value(int64_t{1})),
                         rel::MakeLiteral(rel::Value(int64_t{0})));
}

rel::BinaryOp ToRelOp(sparql::FilterExpr::CompareOp op) {
  switch (op) {
    case sparql::FilterExpr::CompareOp::kEq: return rel::BinaryOp::kEq;
    case sparql::FilterExpr::CompareOp::kNe: return rel::BinaryOp::kNe;
    case sparql::FilterExpr::CompareOp::kLt: return rel::BinaryOp::kLt;
    case sparql::FilterExpr::CompareOp::kLe: return rel::BinaryOp::kLe;
    case sparql::FilterExpr::CompareOp::kGt: return rel::BinaryOp::kGt;
    case sparql::FilterExpr::CompareOp::kGe: return rel::BinaryOp::kGe;
  }
  return rel::BinaryOp::kEq;
}

// A CONTAINS/STRSTARTS/STRENDS needle is safe to embed in a LIKE pattern
// only if it contains neither LIKE wildcards (%, _) nor a backslash: the
// engine's LIKE matcher has no escape syntax, so any of those would change
// the match semantics. Unsafe needles stay residual at the wrapper, which
// evaluates the SPARQL function on decoded rows — correct, just not pushed.
bool LikeSafeNeedle(const std::string& needle) {
  return needle.find_first_of("%_\\") == std::string::npos;
}

// The SQL LIKE pattern equivalent to the SPARQL REGEX `pattern`, or nullopt
// when the regex does not reduce to LIKE. Only an optional ^ anchor, an
// optional $ anchor and a core free of regex metacharacters (and of LIKE
// wildcards) translate exactly: anything else — `.`, escapes like `\.`,
// classes, alternation, repetition — would be matched literally by LIKE and
// silently change the answer, so those filters must stay residual. This is
// the wrapper's own guard; it must hold even if the planner's notion of
// "pushable" (sparql::IsPushableToSql) ever diverges.
std::optional<std::string> RegexToLike(const std::string& pattern) {
  std::string core = pattern;
  bool anchored_front = StartsWith(core, "^");
  if (anchored_front) core = core.substr(1);
  bool anchored_back = !core.empty() && EndsWith(core, "$");
  if (anchored_back) core = core.substr(0, core.size() - 1);
  if (core.find_first_of(".*+?[](){}|\\^$") != std::string::npos) {
    return std::nullopt;
  }
  if (core.find_first_of("%_") != std::string::npos) return std::nullopt;
  return (anchored_front ? "" : "%") + core + (anchored_back ? "" : "%");
}

// Mirrors a comparison when the variable sits on the right-hand side.
sparql::FilterExpr::CompareOp Mirror(sparql::FilterExpr::CompareOp op) {
  switch (op) {
    case sparql::FilterExpr::CompareOp::kLt:
      return sparql::FilterExpr::CompareOp::kGt;
    case sparql::FilterExpr::CompareOp::kLe:
      return sparql::FilterExpr::CompareOp::kGe;
    case sparql::FilterExpr::CompareOp::kGt:
      return sparql::FilterExpr::CompareOp::kLt;
    case sparql::FilterExpr::CompareOp::kGe:
      return sparql::FilterExpr::CompareOp::kLe;
    default:
      return op;
  }
}

}  // namespace

struct SqlWrapper::VarInfo {
  std::string column_expr;  // "alias.column"
  bool is_subject = false;
  const ClassMapping* cm = nullptr;
  const PredicateMapping* pm = nullptr;  // null for subjects
};

SqlWrapper::SqlWrapper(std::string id, const rel::Database* db,
                       mapping::SourceMapping mapping)
    : id_(std::move(id)), db_(db), mapping_(std::move(mapping)) {}

Status SqlWrapper::CollectStatistics(const stats::AnalyzeOptions& options,
                                     stats::SourceStats* out) const {
  LAKEFED_ASSIGN_OR_RETURN(
      *out, stats::AnalyzeRelationalSource(id_, *db_, mapping_, options));
  return Status::OK();
}

std::vector<mapping::RdfMt> SqlWrapper::Molecules() const {
  std::vector<mapping::RdfMt> molecules =
      mapping::MoleculesFromMapping(mapping_);
  // Fill instance counts from the catalog: the number of distinct subject
  // keys of each mapped class.
  for (mapping::RdfMt& molecule : molecules) {
    const ClassMapping* cm = mapping_.FindClass(molecule.class_iri);
    if (cm == nullptr) continue;
    const rel::Table* table = db_->catalog().GetTable(cm->base_table);
    if (table == nullptr) continue;
    auto pk = table->schema().FindColumn(cm->pk_column);
    molecule.cardinality =
        pk.has_value() ? table->column_stats(*pk).num_distinct
                       : table->num_rows();
  }
  return molecules;
}

bool SqlWrapper::IsPredicateAttributeIndexed(
    const std::string& class_iri, const std::string& predicate) const {
  const ClassMapping* cm = mapping_.FindClass(class_iri);
  if (cm == nullptr) return false;
  const PredicateMapping* pm = cm->FindPredicate(predicate);
  if (pm == nullptr) return false;
  const std::string& table = pm->InBaseTable() ? cm->base_table
                                               : pm->link_table;
  return db_->IsIndexed(table, pm->column);
}

bool SqlWrapper::IsSubjectKeyIndexed(const std::string& class_iri) const {
  const ClassMapping* cm = mapping_.FindClass(class_iri);
  return cm != nullptr && db_->IsIndexed(cm->base_table, cm->pk_column);
}

namespace {

// Class of a star at this source: the declared rdf:type, or the class that
// maps the star's first non-type constant predicate.
const ClassMapping* ResolveClass(const mapping::SourceMapping& mapping,
                                 const fed::StarSubQuery& star) {
  if (star.class_iri.has_value()) {
    return mapping.FindClass(*star.class_iri);
  }
  for (const std::string& p : star.ConstantPredicates()) {
    if (p == rdf::kRdfType) continue;
    const ClassMapping* cm = mapping.ClassOfPredicate(p);
    if (cm != nullptr) return cm;
  }
  return nullptr;
}

// Fingerprint of how `var`'s terms are constructed within `star`; merged
// joins require equal fingerprints on both sides.
std::optional<std::string> TermConstructorOf(
    const mapping::SourceMapping& mapping, const fed::StarSubQuery& star,
    const std::string& var) {
  const ClassMapping* cm = ResolveClass(mapping, star);
  if (cm == nullptr) return std::nullopt;
  if (star.SubjectIsVar(var)) {
    return "iri:" + cm->subject_template.pattern();
  }
  auto predicate = star.PredicateOfObjectVar(var);
  if (!predicate.has_value()) return std::nullopt;
  const PredicateMapping* pm = cm->FindPredicate(*predicate);
  if (pm == nullptr) return std::nullopt;
  if (pm->object_is_iri) return "iri:" + pm->iri_template.pattern();
  return "lit:" + pm->literal_datatype;
}

}  // namespace

bool SqlWrapper::CanPushDownJoin(const fed::StarSubQuery& a,
                                 const fed::StarSubQuery& b,
                                 const std::string& var) const {
  auto ca = TermConstructorOf(mapping_, a, var);
  auto cb = TermConstructorOf(mapping_, b, var);
  return ca.has_value() && cb.has_value() && *ca == *cb;
}

Result<SqlWrapper::Translation> SqlWrapper::Translate(
    const fed::SubQuery& subquery) const {
  if (subquery.stars.empty()) {
    return Status::InvalidArgument("empty sub-query for source " + id_);
  }
  Translation tr;
  // The virtual RDF graph has set semantics: duplicate table rows map to
  // the same triple, so the SQL must deduplicate. (`rel` plans no Distinct
  // when the projected primary keys already prove the rows distinct; see
  // DESIGN.md, "Key-proven DISTINCT".)
  tr.statement.distinct = true;
  std::map<std::string, VarInfo> vars;
  std::vector<rel::ExprPtr> where;

  // Registers a variable occurrence: first one defines the column, later
  // ones contribute equality conditions (intra- or inter-star joins).
  auto add_var = [&](const std::string& var, VarInfo info) {
    auto [it, inserted] = vars.emplace(var, info);
    if (!inserted) {
      where.push_back(rel::MakeBinary(rel::BinaryOp::kEq,
                                      rel::MakeColumn(it->second.column_expr),
                                      rel::MakeColumn(info.column_expr)));
    }
  };

  for (size_t star_idx = 0; star_idx < subquery.stars.size(); ++star_idx) {
    const fed::StarSubQuery& star = subquery.stars[star_idx];
    const ClassMapping* cm = ResolveClass(mapping_, star);
    if (cm == nullptr) {
      return Status::NotFound("source " + id_ +
                              " has no mapping for sub-query " +
                              star.ToString());
    }
    std::string alias = "s" + std::to_string(star_idx);
    if (star_idx == 0) {
      tr.statement.from = {cm->base_table, alias};
    } else {
      // Merged star (Heuristic 1): the join condition materializes through
      // the shared-variable equalities below.
      tr.statement.joins.push_back({{cm->base_table, alias},
                                    TriviallyTrue()});
    }

    std::string subject_expr = alias + "." + cm->pk_column;
    if (star.subject.is_var) {
      add_var(star.subject.var, {subject_expr, true, cm, nullptr});
    } else {
      LAKEFED_ASSIGN_OR_RETURN(
          rel::Value pk, PkValueFromSubject(star.subject.term, *cm));
      where.push_back(rel::MakeBinary(rel::BinaryOp::kEq,
                                      rel::MakeColumn(subject_expr),
                                      rel::MakeLiteral(std::move(pk))));
    }

    int link_idx = 0;
    for (const rdf::TriplePattern& pattern : star.patterns) {
      if (pattern.predicate.is_var) {
        return Status::NotImplemented(
            "variable predicates cannot be answered by relational source " +
            id_);
      }
      std::string_view p = pattern.predicate.term.value();
      if (p == rdf::kRdfType) {
        if (pattern.object.is_var) {
          tr.fixed[pattern.object.var] = rdf::Term::Iri(cm->class_iri);
        } else if (pattern.object.term.value() != cm->class_iri) {
          where.push_back(TriviallyFalse());  // contradictory type
        }
        continue;
      }
      const PredicateMapping* pm = cm->FindPredicate(p);
      if (pm == nullptr) {
        return Status::NotFound("predicate <" + std::string(p) +
                                "> not mapped for class <" + cm->class_iri +
                                "> at source " + id_);
      }
      std::string column_expr;
      if (pm->InBaseTable()) {
        column_expr = alias + "." + pm->column;
      } else {
        // 3NF multi-valued attribute: join the side table.
        std::string lalias = alias + "l" + std::to_string(link_idx++);
        tr.statement.joins.push_back(
            {{pm->link_table, lalias},
             rel::MakeBinary(rel::BinaryOp::kEq,
                             rel::MakeColumn(subject_expr),
                             rel::MakeColumn(lalias + "." + pm->link_fk))});
        column_expr = lalias + "." + pm->column;
      }
      if (pattern.object.is_var) {
        add_var(pattern.object.var, {column_expr, false, cm, pm});
      } else {
        LAKEFED_ASSIGN_OR_RETURN(
            rel::Value v, ValueFromTerm(pattern.object.term, *pm));
        where.push_back(rel::MakeBinary(rel::BinaryOp::kEq,
                                        rel::MakeColumn(column_expr),
                                        rel::MakeLiteral(std::move(v))));
      }
    }
  }

  // Source-placed filters -> SQL conditions; untranslatable ones fall back
  // to wrapper-side evaluation on decoded rows.
  for (const sparql::FilterExprPtr& filter : subquery.SourceFilters()) {
    std::string var;
    const VarInfo* info = nullptr;
    if (sparql::IsPushableToSql(*filter, &var)) {
      auto it = vars.find(var);
      if (it != vars.end()) info = &it->second;
    }
    rel::ExprPtr condition;
    if (info != nullptr &&
        filter->kind() == sparql::FilterExpr::Kind::kCompare) {
      const sparql::FilterExpr& lhs = *filter->args()[0];
      const sparql::FilterExpr& rhs = *filter->args()[1];
      const rdf::Term& literal =
          lhs.kind() == sparql::FilterExpr::Kind::kLiteral ? lhs.literal()
                                                           : rhs.literal();
      sparql::FilterExpr::CompareOp op = filter->compare_op();
      if (lhs.kind() == sparql::FilterExpr::Kind::kLiteral) op = Mirror(op);
      Result<rel::Value> value = Status::NotImplemented("");
      if (info->is_subject && literal.is_iri()) {
        value = mapping::PkValueFromSubject(literal, *info->cm);
      } else if (info->pm != nullptr && info->pm->object_is_iri &&
                 literal.is_iri()) {
        value = mapping::ValueFromTerm(literal, *info->pm);
      } else if (info->pm != nullptr && !info->pm->object_is_iri &&
                 literal.is_literal()) {
        value = mapping::ValueFromLexical(literal.value(),
                                          literal.datatype().empty()
                                              ? info->pm->literal_datatype
                                              : literal.datatype());
      }
      if (value.ok()) {
        condition = rel::MakeBinary(ToRelOp(op),
                                    rel::MakeColumn(info->column_expr),
                                    rel::MakeLiteral(std::move(*value)));
      }
    } else if (info != nullptr && info->pm != nullptr &&
               !info->pm->object_is_iri &&
               filter->kind() == sparql::FilterExpr::Kind::kFunction) {
      std::string needle(filter->args()[1]->literal().value());
      std::optional<std::string> like;
      switch (filter->func()) {
        case sparql::FilterExpr::Func::kContains:
          if (LikeSafeNeedle(needle)) like = "%" + needle + "%";
          break;
        case sparql::FilterExpr::Func::kStrStarts:
          if (LikeSafeNeedle(needle)) like = needle + "%";
          break;
        case sparql::FilterExpr::Func::kStrEnds:
          if (LikeSafeNeedle(needle)) like = "%" + needle;
          break;
        case sparql::FilterExpr::Func::kRegex:
          like = RegexToLike(needle);
          break;
        default:
          break;
      }
      if (like.has_value()) {
        condition = std::make_shared<rel::LikeExpr>(
            rel::MakeColumn(info->column_expr), *like);
      }
    }
    if (condition != nullptr) {
      where.push_back(std::move(condition));
    } else {
      tr.residual_filters.push_back(filter);
    }
  }

  // Dependent-join instantiations -> IN lists.
  for (const auto& [var, terms] : subquery.instantiations) {
    auto it = vars.find(var);
    if (it == vars.end()) {
      if (tr.fixed.count(var) > 0) continue;  // checked at decode time
      return Status::InvalidArgument("instantiated variable ?" + var +
                                     " not produced by sub-query");
    }
    const VarInfo& info = it->second;
    std::vector<rel::Value> values;
    for (const rdf::Term& term : terms) {
      Result<rel::Value> v =
          info.is_subject ? mapping::PkValueFromSubject(term, *info.cm)
                          : mapping::ValueFromTerm(term, *info.pm);
      if (v.ok()) values.push_back(std::move(*v));
      // terms that cannot decode can never match; drop them
    }
    if (values.empty()) {
      where.push_back(TriviallyFalse());
    } else {
      where.push_back(std::make_shared<rel::InExpr>(
          rel::MakeColumn(info.column_expr), std::move(values)));
    }
  }

  // SELECT list: one column per variable (alphabetical via std::map).
  for (const auto& [var, info] : vars) {
    tr.statement.items.push_back(
        {rel::MakeColumn(info.column_expr), "v_" + var});
    tr.variables.push_back(var);
  }
  if (tr.statement.items.empty()) {
    // Fully instantiated sub-query: select the first star's key so row
    // presence signals a match.
    tr.statement.items.push_back(
        {rel::MakeColumn(tr.statement.from.alias + "." +
                         ResolveClass(mapping_, subquery.stars.front())
                             ->pk_column),
         "one"});
  }
  tr.statement.where = rel::MakeAndAll(std::move(where));

  for (const std::string& var : tr.variables) {
    const VarInfo& info = vars.at(var);
    tr.decoders.push_back({info.is_subject, info.cm, info.pm});
  }
  return tr;
}

namespace {

// Decodes one result row of `tr.statement` into a solution mapping. False
// when a cell is NULL: no triple, so no solution.
bool DecodeRow(const SqlWrapper::Translation& tr, const rel::Row& row,
               rdf::Binding* binding) {
  binding->reserve(tr.variables.size() + tr.fixed.size());
  // tr.variables is sorted, so every cell appends at the end.
  for (size_t i = 0; i < tr.variables.size(); ++i) {
    const rel::Value& value = row[i];
    if (value.is_null()) return false;
    const SqlWrapper::Translation::Decoder& d = tr.decoders[i];
    binding->emplace_hint(binding->end(), tr.variables[i],
                          d.is_subject
                              ? mapping::SubjectFromValue(value, *d.cm)
                              : mapping::TermFromValue(value, *d.pm));
  }
  for (const auto& [var, term] : tr.fixed) (*binding)[var] = term;
  return true;
}

// True when `binding` passes every filter; an evaluation error rejects.
bool PassesFilters(const rdf::Binding& binding,
                   const std::vector<sparql::FilterExprPtr>& filters) {
  for (const sparql::FilterExprPtr& f : filters) {
    Result<bool> r = f->EvalBool(binding);
    if (!r.ok() || !*r) return false;
  }
  return true;
}

// The tail every decoded answer passes through: instantiation membership
// (re-checked after decoding; this also covers fixed variables that had no
// SQL column), the residual filters, then the morsel emitter.
class AnswerSink {
 public:
  AnswerSink(const fed::SubQuery& subquery,
             const std::vector<sparql::FilterExprPtr>& residual_filters,
             const fed::WrapperContext& ctx)
      : instantiations_(subquery),
        filters_(residual_filters),
        emitter_(ctx) {}

  // Ships `binding` if it passes. False when the producer must stop: the
  // downstream is gone or the network faulted (see BatchEmitter::Emit).
  bool Offer(rdf::Binding binding) {
    if (!instantiations_.Allows(binding)) return true;
    if (!PassesFilters(binding, filters_)) return true;
    return emitter_.Emit(std::move(binding));
  }

  Status Finish() { return emitter_.Finish(); }

 private:
  fed::InstantiationFilter instantiations_;
  const std::vector<sparql::FilterExprPtr>& filters_;
  fed::BatchEmitter emitter_;
};

}  // namespace

Status SqlWrapper::Execute(const fed::SubQuery& subquery,
                           const fed::WrapperContext& ctx) {
  if (subquery.naive_translation && subquery.stars.size() > 1) {
    return ExecuteNaiveMerged(subquery, ctx);
  }
  LAKEFED_ASSIGN_OR_RETURN(Translation tr, Translate(subquery));
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_sql_ = tr.statement.ToString();
  }
  AnswerSink sink(subquery, tr.residual_filters, ctx);
  rel::ExecCounters counters;
  Status scan = db_->Scan(
      tr.statement,
      [&](const rel::Row& row) {
        if (ctx.token.IsCancelled()) return false;  // stop the plan
        rdf::Binding binding;
        if (!DecodeRow(tr, row, &binding)) return true;
        // A dead downstream (cancel/close) or network fault stops the plan.
        return sink.Offer(std::move(binding));
      },
      &counters);
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_counters_ = counters;
  }
  Status fault = sink.Finish();
  LAKEFED_RETURN_NOT_OK(scan);
  return fault;
}

Status SqlWrapper::ExecuteNaiveMerged(const fed::SubQuery& subquery,
                                      const fed::WrapperContext& ctx) {
  // Emulation of the unoptimized merged translation: one SQL per star, then
  // a naive nested-loop join over the decoded rows. This inflates the
  // execution time at the source exactly the way the paper describes.
  std::vector<std::vector<rdf::Binding>> per_star;
  std::vector<sparql::FilterExprPtr> residual_filters;
  std::string naive_sql;

  for (const fed::StarSubQuery& star : subquery.stars) {
    if (ctx.token.IsCancelled()) return Status::OK();
    fed::SubQuery single;
    single.source_id = subquery.source_id;
    single.stars.push_back(star);
    // A filter goes with the star that covers its variables; filters over
    // variables of several stars run after the naive join.
    std::vector<std::string> star_vars = star.Variables();
    auto covered = [&](const sparql::FilterExprPtr& filter) {
      std::vector<std::string> vars;
      filter->CollectVariables(&vars);
      for (const std::string& v : vars) {
        if (std::find(star_vars.begin(), star_vars.end(), v) ==
            star_vars.end()) {
          return false;
        }
      }
      return true;
    };
    for (const fed::PlacedFilter& pf : subquery.filters) {
      if (pf.placement == fed::FilterPlacement::kSource &&
          covered(pf.filter)) {
        single.filters.push_back(pf);
      }
    }
    LAKEFED_ASSIGN_OR_RETURN(Translation tr, Translate(single));
    naive_sql += (naive_sql.empty() ? "" : " ;; ") + tr.statement.ToString();
    std::vector<rdf::Binding> rows;
    LAKEFED_RETURN_NOT_OK(db_->Scan(
        tr.statement,
        [&](const rel::Row& row) {
          if (ctx.token.IsCancelled()) return false;
          rdf::Binding binding;
          if (DecodeRow(tr, row, &binding) &&
              PassesFilters(binding, tr.residual_filters)) {
            rows.push_back(std::move(binding));
          }
          return true;
        },
        nullptr));
    per_star.push_back(std::move(rows));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_sql_ = naive_sql;
  }

  // Source filters not attached to any single star run after the join.
  for (const fed::PlacedFilter& pf : subquery.filters) {
    bool attached = false;
    std::vector<std::string> vars;
    pf.filter->CollectVariables(&vars);
    for (const fed::StarSubQuery& star : subquery.stars) {
      std::vector<std::string> star_vars = star.Variables();
      bool all = true;
      for (const std::string& v : vars) {
        if (std::find(star_vars.begin(), star_vars.end(), v) ==
            star_vars.end()) {
          all = false;
          break;
        }
      }
      if (all) {
        attached = true;
        break;
      }
    }
    if (!attached && pf.placement == fed::FilterPlacement::kSource) {
      residual_filters.push_back(pf.filter);
    }
  }

  // Naive nested-loop join (deliberately quadratic, no hashing): join rows
  // agree when every shared variable binds the same term.
  std::vector<rdf::Binding> joined = std::move(per_star.front());
  for (size_t s = 1; s < per_star.size(); ++s) {
    std::vector<rdf::Binding> next;
    for (const rdf::Binding& left : joined) {
      if (ctx.token.IsCancelled()) return Status::OK();
      for (const rdf::Binding& right : per_star[s]) {
        bool compatible = true;
        for (const auto& [var, term] : right) {
          auto it = left.find(var);
          if (it != left.end() && !(it->second == term)) {
            compatible = false;
            break;
          }
        }
        if (!compatible) continue;
        next.push_back(rdf::MergeBindings(left, right));
      }
    }
    joined = std::move(next);
  }
  AnswerSink sink(subquery, residual_filters, ctx);
  for (rdf::Binding& binding : joined) {
    if (ctx.token.IsCancelled() || !sink.Offer(std::move(binding))) break;
  }
  return sink.Finish();
}

std::string SqlWrapper::last_sql() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_sql_;
}

rel::ExecCounters SqlWrapper::last_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_counters_;
}

}  // namespace lakefed::wrapper
